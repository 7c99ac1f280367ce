package obs

import (
	"bufio"
	"bytes"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// A RunID is the correlation key of one pipeline invocation: the CLIs
// generate one per run and stamp it into the trace root ("run_id" attr),
// the Prometheus run-info family, the JSONL run log, and the benchmark
// reports, so artifacts from the same run can be joined offline
// (cmd/samreport does exactly that).

// runSalt breaks ties between IDs minted by the same process when the
// entropy source is unavailable.
var runSalt atomic.Uint64

// NewRunID returns a fresh 16-hex-char run identifier. IDs come from the
// OS entropy source; if that fails (it realistically never does) the ID
// falls back to pid ⊕ a process-local counter, still unique within a
// machine's concurrent runs for correlation purposes.
func NewRunID() string {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		binary.LittleEndian.PutUint64(b[:], uint64(os.Getpid())<<32^runSalt.Add(1))
	}
	return hex.EncodeToString(b[:])
}

// RunInfoMetric is the name of the build-info-style identity family: a
// constant-1 gauge whose labels carry the run ID and build metadata, the
// idiom Prometheus uses to join a scrape to out-of-band artifacts.
const RunInfoMetric = "sam_run_info"

// runInfoLabels is the label schema of RunInfoMetric, in render order.
var runInfoLabels = []string{"run_id", "go_version", "goos", "goarch", "commit"}

// StampRunInfo publishes sam_run_info{run_id=…,go_version=…,…} 1 into r.
// Safe on a nil registry (no-op via the detached-vector contract).
func StampRunInfo(r *Registry, runID string, m Meta) {
	r.GaugeVec(RunInfoMetric, runInfoLabels...).
		With(runID, m.GoVersion, m.GOOS, m.GOARCH, m.Commit).Set(1)
}

// RunIDFromFamilies extracts the run ID a metrics payload was stamped
// with: the run_id label of the first sam_run_info sample. Empty when the
// family is absent.
func RunIDFromFamilies(fams []PromFamily) string {
	for i := range fams {
		if fams[i].Name != RunInfoMetric {
			continue
		}
		for _, s := range fams[i].Samples {
			if id := s.Label("run_id"); id != "" {
				return id
			}
		}
	}
	return ""
}

// RunLogEntry is one line of the structured JSONL run log: an absolute
// timestamp, the owning run's ID, a kind tag naming the event
// (train_epoch, train_step, gen_phase, gen_progress, stream_pass,
// eval_query, plus "run_start"/"run_end" framing), and the event payload.
type RunLogEntry struct {
	Time  time.Time       `json:"time"`
	RunID string          `json:"run_id"`
	Kind  string          `json:"kind"`
	Data  json.RawMessage `json:"data,omitempty"`
}

// RunLog appends structured events to a JSONL stream, one self-contained
// entry per line (every line repeats the run ID, so a log survives being
// cat'ed together with others and still joins correctly). All methods are
// safe for concurrent use and no-ops on a nil log; write errors are
// sticky and surface from Close.
type RunLog struct {
	mu    sync.Mutex
	bw    *bufio.Writer
	runID string
	err   error
}

// NewRunLog starts a run log on w, writing the "run_start" framing entry
// with the build metadata as its payload.
func NewRunLog(w io.Writer, runID string) *RunLog {
	l := &RunLog{bw: bufio.NewWriter(w), runID: runID}
	l.Log("run_start", BuildMeta())
	return l
}

// RunID returns the ID every entry is stamped with ("" on a nil log).
func (l *RunLog) RunID() string {
	if l == nil {
		return ""
	}
	return l.runID
}

// Log appends one entry. Payloads that fail to marshal are recorded as
// the sticky error rather than silently dropped.
func (l *RunLog) Log(kind string, data any) {
	if l == nil {
		return
	}
	var raw json.RawMessage
	if data != nil {
		buf, err := json.Marshal(data)
		if err != nil {
			l.mu.Lock()
			if l.err == nil {
				l.err = fmt.Errorf("obs: runlog %s payload: %w", kind, err)
			}
			l.mu.Unlock()
			return
		}
		raw = buf
	}
	entry, err := json.Marshal(RunLogEntry{Time: time.Now(), RunID: l.runID, Kind: kind, Data: raw})
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return
	}
	if err == nil {
		_, err = l.bw.Write(append(entry, '\n'))
	}
	if err != nil {
		l.err = err
	}
}

// Close writes the "run_end" framing entry, flushes, and returns the
// first error the log hit. Nil logs close cleanly.
func (l *RunLog) Close() error {
	if l == nil {
		return nil
	}
	l.Log("run_end", nil)
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.bw.Flush(); err != nil && l.err == nil {
		l.err = err
	}
	return l.err
}

// RunLogHooks returns hooks that append every pipeline event to the run
// log, one line per event. The run log is the one event store: follow it
// live with `tail -f`. This is offline tooling: payloads are boxed and
// marshaled per event, so attach it only where the allocation-free
// contract doesn't apply.
func RunLogHooks(l *RunLog) *Hooks {
	return &Hooks{
		OnTrainEpoch:  func(e TrainEpoch) { l.Log("train_epoch", e) },
		OnTrainStep:   func(s TrainStep) { l.Log("train_step", s) },
		OnGenPhase:    func(p GenPhase) { l.Log("gen_phase", p) },
		OnGenProgress: func(p GenProgress) { l.Log("gen_progress", p) },
		OnStreamPass:  func(p StreamPass) { l.Log("stream_pass", p) },
		OnEvalQuery:   func(q EvalQuery) { l.Log("eval_query", q) },
	}
}

// ReadRunLog parses and validates a JSONL run log: every line must be a
// well-formed entry, carry a kind and the same non-empty run ID, and the
// first entry must be the "run_start" frame. It returns the entries in
// file order.
func ReadRunLog(r io.Reader) ([]RunLogEntry, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	var out []RunLogEntry
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var e RunLogEntry
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&e); err != nil {
			return nil, fmt.Errorf("obs: runlog line %d: %w", lineNo, err)
		}
		if e.Kind == "" {
			return nil, fmt.Errorf("obs: runlog line %d: missing kind", lineNo)
		}
		if e.RunID == "" {
			return nil, fmt.Errorf("obs: runlog line %d: missing run_id", lineNo)
		}
		if len(out) == 0 {
			if e.Kind != "run_start" {
				return nil, fmt.Errorf("obs: runlog starts with %q, want run_start", e.Kind)
			}
		} else if e.RunID != out[0].RunID {
			return nil, fmt.Errorf("obs: runlog line %d: run_id %q does not match %q", lineNo, e.RunID, out[0].RunID)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("obs: empty run log")
	}
	return out, nil
}
