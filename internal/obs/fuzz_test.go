package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"
	"time"
)

// The fuzz targets below cover the telemetry readers samtrace and
// samreport run on user-supplied files. Each must return an error on bad
// bytes, never panic; `make fuzz-smoke` runs every target briefly.

// FuzzReadTrace feeds arbitrary bytes to ReadTrace and, when they parse,
// on through AnalyzeTrace and every trace renderer, diffing against the
// fixture trace both ways.
func FuzzReadTrace(f *testing.F) {
	var fixture bytes.Buffer
	enc := json.NewEncoder(&fixture)
	for _, rec := range fixtureTrace() {
		if err := enc.Encode(rec); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(fixture.Bytes())
	tr := NewTrace("run")
	tr.Root().SetAttr("seed", 42)
	tr.Root().Child("train").End() // a live root and an ended child
	var live bytes.Buffer
	if err := tr.WriteJSONL(&live); err != nil {
		f.Fatal(err)
	}
	f.Add(live.Bytes())
	f.Add([]byte(`{"id":5,"parent":3,"name":"x","start_us":0,"wall_us":1}` + "\n"))
	f.Add([]byte("{not json\n"))

	base := AnalyzeTrace(fixtureTrace())
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		stats := AnalyzeTrace(recs)
		WriteTraceTree(io.Discard, stats)
		WriteTopSpans(io.Discard, stats, 5)
		WriteTraceDiff(io.Discard, DiffTraces(base, stats))
		WriteTraceDiff(io.Discard, DiffTraces(stats, base))
	})
}

// FuzzReadRunLog feeds arbitrary bytes to ReadRunLog; a log it accepts
// must start with run_start and carry one run ID throughout.
func FuzzReadRunLog(f *testing.F) {
	var good bytes.Buffer
	l := NewRunLog(&good, "aa")
	h := RunLogHooks(l)
	h.TrainEpoch(TrainEpoch{Epoch: 1, Epochs: 2, Loss: 0.5, Wall: time.Second})
	h.StreamPass(StreamPass{Pass: "A", Table: "t", Shard: -1, RecordsIn: 10, RecordsOut: 4, Runs: 2})
	h.EvalQuery(EvalQuery{Card: 9, Truth: 10, QError: 10.0 / 9, Table: "t", Preds: 2})
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add([]byte(`{"time":"2024-01-01T00:00:00Z","run_id":"aa","kind":"gen_phase"}` + "\n"))
	f.Add([]byte(`{"time":"2024-01-01T00:00:00Z","run_id":"aa","kind":"run_start","extra":1}` + "\n"))
	f.Add([]byte("not json\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := ReadRunLog(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(entries) == 0 || entries[0].Kind != "run_start" {
			t.Fatalf("accepted a log without a leading run_start: %+v", entries)
		}
		for _, e := range entries {
			if e.RunID != entries[0].RunID {
				t.Fatalf("accepted mixed run IDs %q and %q", entries[0].RunID, e.RunID)
			}
		}
	})
}

// FuzzParsePrometheus feeds arbitrary bytes to ParsePrometheus; every
// histogram family it accepts must split into valid series whose
// quantiles can be read, and the run ID must be extractable.
func FuzzParsePrometheus(f *testing.F) {
	var good bytes.Buffer
	r := buildPromRegistry()
	StampRunInfo(r, "aa", BuildMeta())
	if err := WritePrometheus(&good, r); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add([]byte("# TYPE m counter\nm{l=\"a\"} 1 1700000000\nm{l=\"b\"} 2\n"))
	f.Add([]byte("# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n"))
	f.Add([]byte("m{l=\"x 1\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		fams, err := ParsePrometheus(bytes.NewReader(data))
		if err != nil {
			return
		}
		RunIDFromFamilies(fams)
		for i := range fams {
			if fams[i].Type != "histogram" {
				continue
			}
			series, err := fams[i].Histograms()
			if err != nil {
				t.Fatalf("ParsePrometheus accepted histogram %s that Histograms rejects: %v", fams[i].Name, err)
			}
			for _, h := range series {
				for _, q := range []float64{0, 0.5, 0.99, 1} {
					h.Quantile(q)
				}
			}
		}
	})
}
