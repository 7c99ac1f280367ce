package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// tinySizes shrink every workload to run in about a second while keeping
// at least 100 evaluated queries per Q-Error percentile.
func tinySizes() sizes {
	return sizes{
		CensusRows: 500, CensusTrainQ: 80,
		DMVRows: 400, DMVTrainQ: 60,
		TestQ:     50,
		DPSEpochs: 1,

		IMDBTitles: 80, IMDBTrainQ: 100,
		JOBLightQ:  100,
		IMDBEpochs: 1,

		Hidden: 16, Batch: 32, LR: 5e-3,
		GenBatch: 8, ModelSamples: 8,

		GaMRows: 3000, GaMSamples: 6000,
		StreamRows: 3000, StreamSamples: 6000,

		SetupReps: 2,
	}
}

var workloadNames = []string{"dps-train", "imdb-gam", "imdb-stream"}

func TestMetricNames(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEndMetrics...), perLayerMetrics...) {
		if !name.MatchString(d.name) || !unit.MatchString(d.unit) {
			t.Errorf("metric %q unit %q has an invalid name or unit", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric %q declared twice", d.name)
		}
		seen[d.name] = true
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the command
// prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the command reports %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEndMetrics)
	compare("per_layer", spec.PerLayer, perLayerMetrics)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, workloadNames)
	}
}

func runTiny(t *testing.T, workload string, trace bool) *result {
	t.Helper()
	b, err := newBench(workload)
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	cfg := config{workload: workload, seed: 3, seconds: 0.01, trace: trace, out: t.TempDir()}
	res, err := runBench(b, cfg, tinySizes(), &log)
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, log.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s: correct=%v failed=%d of %d\n%s", workload, res.Correct, res.Failed, res.Attempted, log.String())
	}
	return res
}

func TestTinyRuns(t *testing.T) {
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			res := runTiny(t, w, trace)
			defs := endToEndMetrics
			if trace {
				defs = perLayerMetrics
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit || math.IsNaN(m.Value) {
					t.Errorf("%s trace=%v: metric %s = %+v", w, trace, d.name, m)
				}
			}
			if !trace && (res.Metrics["pipeline_s"].Value <= 0 || res.Metrics["qerror_input_gmean"].Value < 1) {
				t.Errorf("%s: implausible metrics %+v", w, res.Metrics)
			}
			if trace && res.Metrics["trace.layer_cover_pct"].Value < 80 {
				t.Errorf("%s: layer spans cover only %.1f%% of the pipeline", w, res.Metrics["trace.layer_cover_pct"].Value)
			}
		}
	}
}

// TestQErrorsRepeat runs a workload twice at one seed: the Q-Errors must
// agree exactly.
func TestQErrorsRepeat(t *testing.T) {
	a := runTiny(t, "imdb-gam", false)
	b := runTiny(t, "imdb-gam", false)
	if a.Metrics["qerror_input_gmean"] != b.Metrics["qerror_input_gmean"] {
		t.Errorf("Q-Error differs across runs: %v vs %v", a.Metrics["qerror_input_gmean"], b.Metrics["qerror_input_gmean"])
	}
}

// produce runs one workload's set-up and one pipeline iteration at tiny
// sizes and returns the runner, the bench and the output for a test to
// corrupt before evaluation.
func produce(t *testing.T, workload string) (*runner, bench, *output) {
	t.Helper()
	b, err := newBench(workload)
	if err != nil {
		t.Fatal(err)
	}
	r := &runner{sz: tinySizes(), seed: 5, out: t.TempDir(), log: &bytes.Buffer{}}
	r.tally.log = r.log
	if _, err := b.setup(r, 0); err != nil {
		t.Fatal(err)
	}
	out, err := b.pipeline(r, 0)
	if err != nil {
		t.Fatal(err)
	}
	return r, b, out
}

// evaluateFails evaluates a corrupted output and requires the checks to
// count at least one failure.
func evaluateFails(t *testing.T, r *runner, b bench, out *output, what string) {
	t.Helper()
	before := r.tally.failed
	if _, err := b.evaluate(r, 0, out); err == nil && r.tally.failed == before {
		t.Errorf("%s went unnoticed:\n%s", what, r.log)
	}
}

func TestChecksCatchTruncatedCSV(t *testing.T) {
	r, b, out := produce(t, "imdb-stream")
	path := out.stream.CSVPaths["movie_keyword"]
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the file at its last complete line: every row still parses, one
	// is missing.
	cut := bytes.LastIndexByte(buf[:len(buf)-1], '\n') + 1
	if err := os.WriteFile(path, buf[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	evaluateFails(t, r, b, out, "a CSV missing its last row")

	r, b, out = produce(t, "imdb-stream")
	path = out.stream.CSVPaths["title"]
	if buf, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf[:len(buf)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	evaluateFails(t, r, b, out, "a CSV cut mid-row")
}

func TestChecksCatchDanglingFK(t *testing.T) {
	r, b, out := produce(t, "imdb-gam")
	child := out.dbs[0].Table("cast_info")
	child.FK[len(child.FK)/2] = math.MaxInt32
	evaluateFails(t, r, b, out, "an in-memory FK naming no title")

	r, b, out = produce(t, "imdb-stream")
	path := out.stream.CSVPaths["movie_info"]
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Point the first data row's foreign key (the last field) at a title
	// key that was never emitted.
	lines := strings.SplitN(string(buf), "\n", 3)
	fields := strings.Split(lines[1], ",")
	fields[len(fields)-1] = "999999999"
	lines[1] = strings.Join(fields, ",")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	evaluateFails(t, r, b, out, "a streamed CSV FK naming no title")
}

func TestChecksCatchMissingRows(t *testing.T) {
	r, b, out := produce(t, "dps-train")
	census := out.dbs[0].Tables[0]
	for _, c := range census.Cols {
		c.Data = c.Data[:len(c.Data)-1]
	}
	evaluateFails(t, r, b, out, "a census table one row short")
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope", "-seconds", "1"},
		{"-workload", "dps-train", "-trace", "2"},
		{"-workload", "dps-train", "-seconds", "0"},
		{"-workload", "dps-train", "extra"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("run %q: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}
