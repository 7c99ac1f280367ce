package obs

import (
	"bytes"
	"encoding/json"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestNewRunIDShape pins the format (16 lowercase hex chars) and spot-
// checks uniqueness across a batch of IDs.
func TestNewRunIDShape(t *testing.T) {
	re := regexp.MustCompile(`^[0-9a-f]{16}$`)
	seen := map[string]bool{}
	for i := 0; i < 256; i++ {
		id := NewRunID()
		if !re.MatchString(id) {
			t.Fatalf("run ID %q does not match %s", id, re)
		}
		if seen[id] {
			t.Fatalf("duplicate run ID %q after %d draws", id, i)
		}
		seen[id] = true
	}
}

// TestRunLogRoundTrip writes a log through the hooks adapter and reads it
// back through the strict validator: framing entries, per-line run IDs,
// and payload fidelity.
func TestRunLogRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	id := NewRunID()
	l := NewRunLog(&buf, id)
	h := RunLogHooks(l)
	h.TrainEpoch(TrainEpoch{Epoch: 1, Epochs: 2, Loss: 0.5, Wall: time.Second})
	h.StreamPass(StreamPass{Pass: "A", Table: "t", Shard: -1, RecordsIn: 10, RecordsOut: 4, Runs: 2})
	h.EvalQuery(EvalQuery{Card: 9, Truth: 10, QError: 10.0 / 9, Table: "t", Preds: 2})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	entries, err := ReadRunLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	kinds := make([]string, len(entries))
	for i, e := range entries {
		kinds[i] = e.Kind
		if e.RunID != id {
			t.Fatalf("entry %d run_id %q, want %q", i, e.RunID, id)
		}
		if e.Time.IsZero() {
			t.Fatalf("entry %d has no timestamp", i)
		}
	}
	want := []string{"run_start", "train_epoch", "stream_pass", "eval_query", "run_end"}
	if strings.Join(kinds, ",") != strings.Join(want, ",") {
		t.Fatalf("kinds %v, want %v", kinds, want)
	}
	var p StreamPass
	if err := json.Unmarshal(entries[2].Data, &p); err != nil {
		t.Fatal(err)
	}
	if p.Pass != "A" || p.Table != "t" || p.RecordsIn != 10 || p.RecordsOut != 4 || p.Runs != 2 {
		t.Fatalf("stream_pass payload %+v", p)
	}
	var meta Meta
	if err := json.Unmarshal(entries[0].Data, &meta); err != nil {
		t.Fatal(err)
	}
	if meta.GoVersion == "" {
		t.Fatal("run_start frame carries no build metadata")
	}
}

// TestReadRunLogRejects covers the validator's failure modes: logs that
// don't start with run_start, mix run IDs, smuggle unknown fields, miss
// required ones, or are empty.
func TestReadRunLogRejects(t *testing.T) {
	line := func(id, kind string) string {
		return `{"time":"2026-01-02T03:04:05Z","run_id":"` + id + `","kind":"` + kind + `"}` + "\n"
	}
	cases := map[string]string{
		"empty":              "",
		"blank lines only":   "\n\n",
		"not run_start":      line("aa", "train_epoch"),
		"mixed run ids":      line("aa", "run_start") + line("bb", "train_epoch"),
		"missing kind":       `{"time":"2026-01-02T03:04:05Z","run_id":"aa"}` + "\n",
		"missing run_id":     `{"time":"2026-01-02T03:04:05Z","kind":"run_start"}` + "\n",
		"unknown field":      `{"time":"2026-01-02T03:04:05Z","run_id":"aa","kind":"run_start","extra":1}` + "\n",
		"not json":           "run_start aa\n",
		"second line broken": line("aa", "run_start") + "{\n",
	}
	for name, text := range cases {
		if _, err := ReadRunLog(strings.NewReader(text)); err == nil {
			t.Errorf("%s: accepted\n%s", name, text)
		}
	}
	good := line("aa", "run_start") + "\n" + line("aa", "gen_phase")
	entries, err := ReadRunLog(strings.NewReader(good))
	if err != nil {
		t.Fatalf("valid log rejected: %v", err)
	}
	if len(entries) != 2 {
		t.Fatalf("parsed %d entries, want 2", len(entries))
	}
}

// TestRunLogNilSafe exercises the nil-log contract: every method is a
// no-op and Close reports success.
func TestRunLogNilSafe(t *testing.T) {
	var l *RunLog
	l.Log("gen_phase", GenPhase{})
	if l.RunID() != "" {
		t.Fatal("nil log has a run ID")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	RunLogHooks(l).GenPhase(GenPhase{Phase: "sample"})
}

// TestStampRunInfo checks the identity family end to end: stamped into a
// registry, rendered to Prometheus text (including label-value escapes),
// and recovered from the parsed families.
func TestStampRunInfo(t *testing.T) {
	runIDOf := func(r *Registry) string {
		t.Helper()
		var buf bytes.Buffer
		if err := WritePrometheus(&buf, r); err != nil {
			t.Fatal(err)
		}
		fams, err := ParsePrometheus(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return RunIDFromFamilies(fams)
	}

	r := NewRegistry()
	id := NewRunID()
	StampRunInfo(r, id, BuildMeta())
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), RunInfoMetric+`{run_id="`+id+`"`) {
		t.Fatalf("exposition missing the run-info family:\n%s", buf.String())
	}
	if got := runIDOf(r); got != id {
		t.Fatalf("RunIDFromFamilies = %q, want %q", got, id)
	}
	if RunIDFromFamilies(nil) != "" {
		t.Fatal("RunIDFromFamilies(nil) nonempty")
	}

	// Escaped label values must survive the round trip too.
	r2 := NewRegistry()
	weird := "id\"with\\escapes\nnewline"
	StampRunInfo(r2, weird, Meta{})
	if got := runIDOf(r2); got != weird {
		t.Fatalf("escaped RunIDFromFamilies = %q, want %q", got, weird)
	}

	// Nil-registry stamping must not panic (detached-vector contract).
	StampRunInfo(nil, id, Meta{})
	if got := runIDOf(NewRegistry()); got != "" {
		t.Fatalf("unstamped registry yielded run ID %q", got)
	}
}
