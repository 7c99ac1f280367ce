package obs

import (
	"bytes"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRegistryConcurrent hammers one counter, gauge, and histogram from
// GOMAXPROCS goroutines; meaningful under -race, and the counter and
// histogram totals must come out exact regardless.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	workers := runtime.GOMAXPROCS(0)
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("hits")
			g := r.Gauge("level")
			h := r.Histogram("lat", ExpBuckets(1e-6, 2, 24))
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Set(float64(i))
				g.Add(0.5)
				h.Observe(float64(i%100) * 1e-5)
			}
		}(w)
	}
	wg.Wait()
	want := int64(workers * perWorker)
	if got := r.Counter("hits").Value(); got != want {
		t.Fatalf("counter = %d, want %d", got, want)
	}
	h := r.Histogram("lat", nil)
	if got := h.Count(); got != want {
		t.Fatalf("histogram count = %d, want %d", got, want)
	}
	wantSum := 0.0
	for i := 0; i < perWorker; i++ {
		wantSum += float64(i%100) * 1e-5
	}
	wantSum *= float64(workers)
	if got := h.Sum(); math.Abs(got-wantSum) > 1e-6*wantSum+1e-12 {
		t.Fatalf("histogram sum = %v, want %v", got, wantSum)
	}
	vals := scrape(t, r)
	if vals["hits"] != float64(want) || vals["lat_count"] != float64(want) {
		t.Fatalf("exposition mismatch: hits=%v lat_count=%v", vals["hits"], vals["lat_count"])
	}
}

// scrape renders r as Prometheus text, parses it back, and returns every
// sample's value keyed by name and labels as exposed — name{k="v",...},
// or the bare name when unlabeled. Histograms appear as their _bucket,
// _sum and _count series.
func scrape(t *testing.T, r *Registry) map[string]float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r); err != nil {
		t.Fatal(err)
	}
	fams, err := ParsePrometheus(&buf)
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string]float64{}
	for _, f := range fams {
		for _, s := range f.Samples {
			key := s.Name
			if len(s.Labels) > 0 {
				pairs := make([]string, len(s.Labels))
				for i, l := range s.Labels {
					pairs[i] = l.Name + `="` + l.Value + `"`
				}
				key += "{" + strings.Join(pairs, ",") + "}"
			}
			vals[key] = s.Value
		}
	}
	return vals
}

// roundTripHistogram observes xs into a registered histogram over bounds,
// then renders and parses the registry, returning the parsed series — the
// path samreport reads quantiles from.
func roundTripHistogram(t *testing.T, bounds []float64, xs ...float64) PromHistogram {
	t.Helper()
	r := NewRegistry()
	h := r.Histogram("h", bounds)
	for _, x := range xs {
		h.Observe(x)
	}
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r); err != nil {
		t.Fatal(err)
	}
	fams, err := ParsePrometheus(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(fams) != 1 {
		t.Fatalf("parsed %d families, want 1", len(fams))
	}
	series, err := fams[0].Histograms()
	if err != nil || len(series) != 1 {
		t.Fatalf("histogram series %+v, err %v", series, err)
	}
	return series[0]
}

// TestHistogramQuantiles checks bucket-interpolated quantiles, read back
// through a Prometheus round trip, against a sorted reference sample:
// every estimate must land within one bucket width of the exact quantile.
func TestHistogramQuantiles(t *testing.T) {
	bounds := ExpBuckets(0.001, 1.5, 40)
	// Log-uniform-ish deterministic sample.
	var xs []float64
	v := 0.0017
	for i := 0; i < 5000; i++ {
		xs = append(xs, math.Mod(v*float64(i+1), 3.0)+0.002)
	}
	h := roundTripHistogram(t, bounds, xs...)
	sort.Float64s(xs)
	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		got := h.Quantile(q)
		exact := xs[int(math.Min(q*float64(len(xs)), float64(len(xs)-1)))]
		// Bucket width at the exact value bounds the estimation error.
		idx := sort.SearchFloat64s(bounds, exact)
		lo := 0.0
		if idx > 0 {
			lo = bounds[idx-1]
		}
		hi := exact * 2
		if idx < len(bounds) {
			hi = bounds[idx]
		}
		width := hi - lo
		if math.Abs(got-exact) > width+1e-12 {
			t.Fatalf("q=%.2f: got %v, exact %v (bucket width %v)", q, got, exact, width)
		}
	}
	if !math.IsNaN(roundTripHistogram(t, bounds).Quantile(0.5)) {
		t.Fatal("empty histogram quantile should be NaN")
	}
}

// TestHistogramQuantileEdges pins the interpolation corner cases: an
// empty histogram is NaN at every quantile, a single-bucket histogram
// interpolates across the bucket (from 0, the lowest bucket's lower
// edge, to its bound), out-of-range q clamps to [0, 1], and mass above
// the last bound reports that bound. The exposition carries no observed
// min or max, so nothing narrows the estimate below bucket resolution.
func TestHistogramQuantileEdges(t *testing.T) {
	empty := roundTripHistogram(t, []float64{1, 2, 3})
	for _, q := range []float64{0, 0.5, 1} {
		if !math.IsNaN(empty.Quantile(q)) {
			t.Fatalf("empty Quantile(%v) = %v, want NaN", q, empty.Quantile(q))
		}
	}

	// One bound → two buckets; keep all mass in the first so a single
	// bucket holds every observation.
	single := roundTripHistogram(t, []float64{10}, 2, 4, 6)
	for _, c := range []struct{ q, want float64 }{
		{0, 0}, {0.5, 5}, {1, 10},
		{-3, 0}, {7, 10}, // q outside [0, 1] clamps instead of extrapolating
	} {
		if got := single.Quantile(c.q); got != c.want {
			t.Fatalf("single-bucket Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}

	// Overflow-only mass: everything above the last bound reports it.
	over := roundTripHistogram(t, []float64{1}, 50, 100)
	for _, q := range []float64{0, 1} {
		if got := over.Quantile(q); got != 1 {
			t.Fatalf("overflow Quantile(%v) = %v, want the last bound 1", q, got)
		}
	}
}

// TestHistogramMinMaxClamp pins the small-sample behaviour: a single
// observation's quantiles are clamped to the edges of its bucket (10,
// 100] and interpolated linearly between them.
func TestHistogramMinMaxClamp(t *testing.T) {
	h := roundTripHistogram(t, ExpBuckets(1, 10, 6), 33)
	for _, c := range []struct{ q, want float64 }{{0, 10}, {0.5, 55}, {1, 100}} {
		if got := h.Quantile(c.q); math.Abs(got-c.want) > 1e-9 {
			t.Fatalf("single-sample Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

// TestSpanNestingRoundTrip builds a nested trace, serializes it to JSONL,
// parses it back, and checks the tree structure and measurements survive.
func TestSpanNestingRoundTrip(t *testing.T) {
	tr := NewTrace("run")
	tr.Root().SetAttr("seed", 42)
	train := tr.Root().Child("train")
	ep := train.Child("epoch")
	time.Sleep(time.Millisecond)
	ep.End()
	train.End()
	gen := tr.Root().Child("generate")
	gen.SetAttr("tuples", 123)
	gen.End()
	tr.Root().End()

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("got %d spans, want 4", len(recs))
	}
	byName := map[string]SpanRecord{}
	for _, rec := range recs {
		byName[rec.Name] = rec
	}
	if byName["run"].Parent != 0 {
		t.Fatalf("root parent = %d", byName["run"].Parent)
	}
	if byName["train"].Parent != byName["run"].ID {
		t.Fatal("train should nest under run")
	}
	if byName["epoch"].Parent != byName["train"].ID {
		t.Fatal("epoch should nest under train")
	}
	if byName["epoch"].WallUS <= 0 {
		t.Fatalf("epoch wall = %dus, want > 0", byName["epoch"].WallUS)
	}
	if v, ok := byName["run"].Attrs["seed"]; !ok || v.(float64) != 42 {
		t.Fatalf("seed attr lost: %v", byName["run"].Attrs)
	}
	if v := byName["generate"].Attrs["tuples"]; v.(float64) != 123 {
		t.Fatalf("tuples attr = %v", v)
	}
	var tree strings.Builder
	WriteTraceTree(&tree, AnalyzeTrace(recs))
	for _, want := range []string{"run", "train", "epoch", "generate"} {
		if !strings.Contains(tree.String(), want) {
			t.Fatalf("trace tree missing %q:\n%s", want, tree.String())
		}
	}
}

// TestReadTraceRejectsMalformed covers the checker used by the CI smoke
// run: empty traces, broken JSON, and orphan parents must all error.
func TestReadTraceRejectsMalformed(t *testing.T) {
	if _, err := ReadTrace(strings.NewReader("")); err == nil {
		t.Fatal("empty trace accepted")
	}
	if _, err := ReadTrace(strings.NewReader("{not json\n")); err == nil {
		t.Fatal("malformed line accepted")
	}
	orphan := `{"id":5,"parent":3,"name":"x","start_us":0,"wall_us":1}` + "\n"
	if _, err := ReadTrace(strings.NewReader(orphan)); err == nil {
		t.Fatal("orphan parent accepted")
	}
}

// TestNilTraceAndHooksAreNoOps pins the disabled-telemetry contract: nil
// receivers must be callable and free of effects.
func TestNilTraceAndHooksAreNoOps(t *testing.T) {
	var tr *Trace
	sp := tr.Root().Child("x")
	sp.SetAttr("k", 1)
	sp.End()
	if err := tr.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	var h *Hooks
	h.TrainEpoch(TrainEpoch{})
	h.TrainStep(TrainStep{})
	h.GenPhase(GenPhase{})
	h.EvalQuery(EvalQuery{})
	if h.WantsTrainStep() || h.WantsTrainEpoch() {
		t.Fatal("nil hooks want stats")
	}
	if Merge(nil, nil) != nil {
		t.Fatal("Merge of nils should be nil")
	}
}

// TestMergeFansOut checks merged hooks deliver every event to all targets.
func TestMergeFansOut(t *testing.T) {
	var a, b int
	h := Merge(&Hooks{OnTrainEpoch: func(TrainEpoch) { a++ }},
		&Hooks{OnTrainEpoch: func(TrainEpoch) { b++ }})
	h.TrainEpoch(TrainEpoch{})
	if a != 1 || b != 1 {
		t.Fatalf("fan-out a=%d b=%d", a, b)
	}
}

// TestMergeWantsOnlyListenedSignals pins that merging hooks sets a
// callback only when some input sets it: merging a stream-pass listener
// with an eval listener must not make sampling build a progress tracker
// or training time every step for nobody.
func TestMergeWantsOnlyListenedSignals(t *testing.T) {
	var passes, queries int
	h := Merge(&Hooks{OnStreamPass: func(StreamPass) { passes++ }},
		nil, &Hooks{OnEvalQuery: func(EvalQuery) { queries++ }})
	if h.WantsGenProgress() || h.WantsTrainStep() || h.WantsTrainEpoch() {
		t.Fatalf("merged hooks want unheard signals: progress=%v step=%v epoch=%v",
			h.WantsGenProgress(), h.WantsTrainStep(), h.WantsTrainEpoch())
	}
	if !h.WantsStreamPass() || h.OnEvalQuery == nil || h.OnGenPhase != nil {
		t.Fatal("merged hooks lost or invented a listener")
	}
	h.StreamPass(StreamPass{})
	h.EvalQuery(EvalQuery{})
	h.TrainStep(TrainStep{})
	if passes != 1 || queries != 1 {
		t.Fatalf("delivery: passes=%d queries=%d", passes, queries)
	}
}

// TestMetricsHooksFeedRegistry wires MetricsHooks and checks the registry
// reflects emitted events.
func TestMetricsHooksFeedRegistry(t *testing.T) {
	r := NewRegistry()
	h := MetricsHooks(r)
	h.TrainEpoch(TrainEpoch{Epoch: 1, Epochs: 2, Loss: 0.5, GradNorm: 1.25, Wall: time.Second})
	h.TrainStep(TrainStep{Loss: 0.5, Wall: 2 * time.Millisecond})
	h.GenPhase(GenPhase{Phase: "merge", Table: "t", Tuples: 10, Groups: 4})
	h.GenPhase(GenPhase{Phase: "weight", Table: "t", MassBefore: 7, MassAfter: 100})
	h.EvalQuery(EvalQuery{Card: 10, Truth: 20, QError: 2, Wall: time.Millisecond})
	vals := scrape(t, r)
	for key, want := range map[string]float64{
		"train_epochs_total":                       1,
		"train_steps_total":                        1,
		"train_loss":                               0.5,
		"train_epochs_per_sec":                     1,
		`gen_merge_groups_total{table="t"}`:        4,
		`gen_tuples_total{phase="merge"}`:          10,
		`gen_weight_mass{table="t",stage="after"}`: 100,
		"eval_qerror_count":                        1,
	} {
		if got, ok := vals[key]; !ok || got != want {
			t.Fatalf("%s = %v (present %v), want %v", key, got, ok, want)
		}
	}
	h.GenProgress(GenProgress{Phase: "sample", Done: 50, Total: 100, Rate: 123})
	vals = scrape(t, r)
	if vals["gen_tuples_per_sec"] != 123 || vals["gen_progress_ratio"] != 0.5 {
		t.Fatalf("progress gauges: rate=%v ratio=%v", vals["gen_tuples_per_sec"], vals["gen_progress_ratio"])
	}
}

// TestServeDebug boots the debug server on an ephemeral port, checks it
// routes exactly /debug/pprof/* and /metrics, validates the Prometheus
// exposition parses, and checks the close function actually drains the
// server.
func TestServeDebug(t *testing.T) {
	r := NewRegistry()
	r.Counter("boot").Inc()
	r.CounterVec("boot_labeled_total", "kind").With("a").Add(2)
	addr, closeFn, err := ServeDebug("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]int{
		"/debug/pprof/": http.StatusOK,
		"/metrics":      http.StatusOK,
		"/debug/vars":   http.StatusNotFound,
		"/metrics.json": http.StatusNotFound,
		"/debug/events": http.StatusNotFound,
	} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, want)
		}
	}

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != PromContentType {
		t.Fatalf("/metrics content type = %q, want %q", ct, PromContentType)
	}
	fams, err := ParsePrometheus(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/metrics does not parse as Prometheus text: %v", err)
	}
	names := map[string]bool{}
	for _, f := range fams {
		names[f.Name] = true
	}
	if !names["boot"] || !names["boot_labeled_total"] {
		t.Fatalf("exposition missing families: %v", names)
	}

	closeFn()
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Fatal("server still reachable after close")
	}
}
