// Command pipebench is the repository benchmark. It runs one workload of
// the SAM pipeline — query workload in hand to synthetic database produced
// — through the program's public layer functions, checks the database it
// produced, and prints one JSON result line as the last line of its
// standard output. See README.md for the workloads and metrics.
//
//	pipebench -workload dps-train|imdb-gam|imdb-stream -seed N -seconds S -trace 0|1
//
// With -trace 0 it reports the end-to-end metrics, measured with tracing
// and hooks off. With -trace 1 it reports the per-layer metrics from spans
// the benchmark records around each layer call and from the program's
// hook events, and writes those spans as JSONL under -out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"sam/internal/obs"
	"sam/internal/tensor"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	var c config
	fs := flag.NewFlagSet("pipebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&c.workload, "workload", "", "dps-train, imdb-gam or imdb-stream")
	fs.Int64Var(&c.seed, "seed", 1, "workload seed; every input derives from it")
	fs.Float64Var(&c.seconds, "seconds", 10, "how long to repeat the timed pipeline")
	traceFlag := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	fs.StringVar(&c.out, "out", ".bench_build/pipebench-out", "directory for generated CSVs, spill files and traces")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if fs.NArg() > 0 {
		return c, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return c, fmt.Errorf("-trace must be 0 or 1, got %d", *traceFlag)
	}
	if c.seconds <= 0 {
		return c, fmt.Errorf("-seconds must be positive")
	}
	c.trace = *traceFlag == 1
	return c, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "pipebench:", err)
		return 2
	}
	b, err := newBench(cfg.workload)
	if err != nil {
		fmt.Fprintln(stderr, "pipebench:", err)
		return 2
	}
	// Never more threads than cores, and the kernel budget re-read after
	// the change: the tensor package sized it from GOMAXPROCS at start-up.
	runtime.GOMAXPROCS(min(workers, runtime.NumCPU()))
	tensor.SetMatMulWorkers(runtime.GOMAXPROCS(0))

	res, err := runBench(b, cfg, benchSizes(), stderr)
	if err != nil {
		fmt.Fprintln(stderr, "pipebench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "pipebench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the JSON line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runner carries one run's state through set-up, the timed loop and the
// evaluation.
type runner struct {
	sz      sizes
	seed    int64
	out     string // this run's scratch directory
	log     io.Writer
	tally   tally
	dropped int // training queries dropped at compile

	trace *tracer // the run's tracer; nil with -trace 0
	tr    *tracer // the tracer of the phase running now; nil when untraced
}

// timings are the measurements the metrics are taken from. Times and
// rates are scaled to the nominal host by the reference timed just before
// (see hostref.go); wall and ref are as measured.
type timings struct {
	setup    []float64 // seconds per set-up repetition
	pipeline []float64 // seconds per untraced iteration
	traced   []float64 // seconds per traced iteration
	genRate  []float64 // rows per second of generation, untraced
	peakHeap []float64 // bytes, the peak of each untraced iteration
	wall     []float64 // seconds per untraced iteration, unscaled
	ref      []float64 // every reference time, in seconds
	goAt     int       // goroutines running at the first reference
	qe       *qerrors
}

// hostRef times the reference refReps times, records each, and returns
// their median and the wall time they took together. The heap is
// collected before, so that the reference does not pay for the program's
// garbage, and after, so that what follows starts from a collected heap.
// No goroutine the program started may still run: a busy one would slow
// the reference and so make the program's scaled times look faster.
func (r *runner) hostRef(tm *timings, ref *hostRef) (rt, took float64) {
	start := time.Now()
	runtime.GC()
	n := runtime.NumGoroutine()
	if len(tm.ref) == 0 {
		tm.goAt = n
	}
	r.tally.check(n <= tm.goAt, "%d goroutines running at reference %d, %d at the first", n, len(tm.ref)/refReps+1, tm.goAt)
	for range refReps {
		tm.ref = append(tm.ref, ref.time())
	}
	runtime.GC()
	return median(tm.ref[len(tm.ref)-refReps:]), time.Since(start).Seconds()
}

// runBench runs one workload: SetupReps set-ups, then the pipeline
// repeatedly for about cfg.seconds (an untimed warm-up first; with
// -trace 1, untraced and traced iterations alternate), then one
// evaluation of the last output.
func runBench(b bench, cfg config, sz sizes, log io.Writer) (*result, error) {
	runID := obs.NewRunID()
	r := &runner{sz: sz, seed: cfg.seed, log: log, out: filepath.Join(cfg.out, "run-"+runID)}
	r.tally.log = log
	if err := os.MkdirAll(r.out, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(r.out)
	if cfg.trace {
		r.trace = newTracer(runID, time.Now())
	}
	fmt.Fprintf(log, "pipebench: workload %s seed %d run %s trace %v\n", cfg.workload, cfg.seed, runID, cfg.trace)

	ref, err := newHostRef()
	if err != nil {
		return nil, err
	}
	defer ref.close()

	var tm timings
	var want uint64
	for i := 0; i < sz.SetupReps; i++ {
		rt, _ := r.hostRef(&tm, ref)
		r.tr = r.trace
		root := r.tr.begin("setup", 0)
		start := time.Now()
		d, err := b.setup(r, root)
		tm.setup = append(tm.setup, time.Since(start).Seconds()*refNominal/rt)
		r.tr.end(root)
		if !r.tally.stage(err, "setup") {
			return r.failure(), nil
		}
		if i == 0 {
			want = d
		}
		r.tally.check(d == want, "set-up %d built different inputs than set-up 1", i+1)
	}

	var out *output
	var first uint64
	start := time.Now()
	for i := 0; ; i++ {
		warmup := i == 0
		traced := r.trace != nil && i%2 == 1
		r.tr = nil
		if traced {
			r.tr = r.trace
		}
		out = nil // the previous output must not count toward this iteration's heap
		rt, rtook := r.hostRef(&tm, ref)
		hw := startHeapWatch(2 * time.Millisecond)
		root := r.tr.begin("pipeline", 0)
		t0 := time.Now()
		o, err := b.pipeline(r, root)
		el := time.Since(t0).Seconds()
		r.tr.end(root)
		peak := hw.stop()
		if !r.tally.stage(err, "pipeline") {
			return r.failure(), nil
		}
		if i == 0 {
			first = o.digest
		}
		r.tally.check(o.digest == first, "iteration %d produced a different database than iteration 1", i+1)
		fmt.Fprintf(log, "pipebench: iteration %d (traced %v, warm-up %v): %.4f s, reference %.4f s, peak heap %.1f MiB\n",
			i+1, traced, warmup, el, rt, float64(peak)/(1<<20))
		scale := refNominal / rt
		switch {
		case warmup:
		case traced:
			tm.traced = append(tm.traced, el*scale)
		default:
			tm.pipeline = append(tm.pipeline, el*scale)
			tm.genRate = append(tm.genRate, float64(o.rows)/(o.genWall.Seconds()*scale))
			tm.peakHeap = append(tm.peakHeap, float64(peak))
			tm.wall = append(tm.wall, el)
		}
		out = o
		// Stop before an iteration that would likely end past --seconds,
		// once every reported median has a sample.
		measured := len(tm.pipeline) > 0 && (r.trace == nil || len(tm.traced) > 0)
		if measured && time.Since(start).Seconds()+rtook+el > cfg.seconds {
			break
		}
	}

	r.tr = r.trace
	root := r.tr.begin("evaluate", 0)
	qe, err := b.evaluate(r, root, out)
	r.tr.end(root)
	if !r.tally.stage(err, "evaluate") {
		return r.failure(), nil
	}
	tm.qe = qe
	checkFinite(&r.tally, "input queries", qe.input)
	checkFinite(&r.tally, "test queries", qe.test)
	checkFinite(&r.tally, "model estimates", qe.model)

	var vals map[string]float64
	if r.trace == nil {
		vals = endToEnd(&tm)
	} else {
		st := newSpanTree(r.trace.records())
		vals = perLayer(st, &tm, r.dropped)
		if err := r.writeTrace(cfg, st); err != nil {
			r.tally.stage(err, "write trace")
		}
	}
	return r.finish(vals, cfg.trace), nil
}

// failure is the result of a run a stage error cut short.
func (r *runner) failure() *result {
	return &result{Correct: false, Attempted: r.tally.attempted, Failed: max(r.tally.failed, 1), Metrics: map[string]metric{}}
}

// finish fills the result with the reported metrics in their declared
// order, failing any that is missing or not finite.
func (r *runner) finish(vals map[string]float64, traced bool) *result {
	res := &result{Metrics: map[string]metric{}}
	defs := endToEndMetrics
	if traced {
		defs = perLayerMetrics
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !r.tally.check(ok && !math.IsNaN(v) && !math.IsInf(v, 0), "metric %s not measured (%v)", d.name, v) {
			v = 0
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(r.log, "  %-30s %14.6g %s\n", d.name, v, d.unit)
	}
	res.Attempted, res.Failed = r.tally.attempted, r.tally.failed
	res.Correct = res.Failed == 0
	return res
}

// writeTrace writes the run's spans as JSONL and the per-layer self-time
// table as JSON under cfg.out/traces, and prints the table.
func (r *runner) writeTrace(cfg config, st *spanTree) error {
	dir := filepath.Join(cfg.out, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s", cfg.workload, cfg.seed, r.trace.runID))
	f, err := os.Create(base + ".jsonl")
	if err != nil {
		return err
	}
	if err := writeJSONL(f, st.spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	table := selfTimeTable(st)
	buf, err := json.MarshalIndent(table, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+"-layers.json", append(buf, '\n'), 0o644); err != nil {
		return err
	}
	printSelfTimes(r.log, table)
	fmt.Fprintf(r.log, "pipebench: trace written to %s.jsonl\n", base)
	return nil
}

// heapWatch samples the Go heap in use (live and unswept objects plus
// free space in in-use spans, as MemStats.HeapInuse) on a fixed cadence
// and keeps the peak. runtime/metrics reads it without stopping the world.
type heapWatch struct {
	done chan struct{}
	peak chan uint64
}

func startHeapWatch(every time.Duration) *heapWatch {
	hw := &heapWatch{done: make(chan struct{}), peak: make(chan uint64, 1)}
	go func() {
		samples := []metrics.Sample{
			{Name: "/memory/classes/heap/objects:bytes"},
			{Name: "/memory/classes/heap/unused:bytes"},
		}
		inUse := func() uint64 {
			metrics.Read(samples)
			return samples[0].Value.Uint64() + samples[1].Value.Uint64()
		}
		var peak uint64
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			peak = max(peak, inUse())
			select {
			case <-hw.done:
				hw.peak <- max(peak, inUse())
				return
			case <-t.C:
			}
		}
	}()
	return hw
}

// stop ends sampling and returns the peak in bytes once the sampler has
// exited.
func (hw *heapWatch) stop() uint64 {
	close(hw.done)
	return <-hw.peak
}
