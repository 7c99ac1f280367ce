package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"
)

// tracer records the benchmark's own spans. Call spans wrap each call into
// a pipeline layer; event spans are rebuilt from the program's hook events,
// which arrive when their phase ends and carry its wall time. Spans stay in
// memory and are written as JSONL when the run ends. A nil *tracer records
// nothing, so untraced iterations pay one branch per call.
type tracer struct {
	mu    sync.Mutex
	runID string
	t0    time.Time
	spans []spanRec
	mem   map[int64]runtime.MemStats // call spans still open
}

// spanRec is one span. Start and End are seconds since the run started;
// Parent 0 marks a root (one setup repetition, pipeline iteration or
// evaluation).
type spanRec struct {
	RunID  string             `json:"run_id"`
	ID     int64              `json:"id"`
	Parent int64              `json:"parent"`
	Name   string             `json:"name"`
	Start  float64            `json:"start_s"`
	End    float64            `json:"end_s"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

func (s *spanRec) dur() float64 { return s.End - s.Start }

func newTracer(runID string, t0 time.Time) *tracer {
	return &tracer{runID: runID, t0: t0, mem: map[int64]runtime.MemStats{}}
}

func (t *tracer) since(at time.Time) float64 { return at.Sub(t.t0).Seconds() }

// begin opens a call span and snapshots the allocator so end can record
// the bytes allocated and GC cycles run inside it.
func (t *tracer) begin(name string, parent int64) int64 {
	if t == nil {
		return 0
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, spanRec{RunID: t.runID, ID: id, Parent: parent, Name: name, Start: t.since(now), End: -1})
	t.mem[id] = ms
	return id
}

// end closes a call span opened by begin.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &t.spans[id-1]
	sp.End = t.since(now)
	start := t.mem[id]
	delete(t.mem, id)
	sp.setAttr("alloc_mib", float64(ms.TotalAlloc-start.TotalAlloc)/(1<<20))
	sp.setAttr("gc_cycles", float64(ms.NumGC-start.NumGC))
}

// event records a finished phase reported by a hook: it ended now and
// lasted wall.
func (t *tracer) event(name string, parent int64, wall time.Duration, attrs map[string]float64) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, spanRec{RunID: t.runID, ID: id, Parent: parent, Name: name,
		Start: t.since(now.Add(-wall)), End: t.since(now), Attrs: attrs})
}

// attr sets an attribute on an open or closed span.
func (t *tracer) attr(id int64, key string, v float64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].setAttr(key, v)
	t.mu.Unlock()
}

// add adds v to an attribute of a span; events from concurrent workers
// may accumulate into one span.
func (t *tracer) add(id int64, key string, v float64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	sp := &t.spans[id-1]
	sp.setAttr(key, sp.Attrs[key]+v)
	t.mu.Unlock()
}

func (s *spanRec) setAttr(key string, v float64) {
	if s.Attrs == nil {
		s.Attrs = map[string]float64{}
	}
	s.Attrs[key] = v
}

// records returns a copy of the spans recorded so far.
func (t *tracer) records() []spanRec {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]spanRec(nil), t.spans...)
}

// writeJSONL writes one span per line, parents before children.
func writeJSONL(w io.Writer, spans []spanRec) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return fmt.Errorf("write span %d: %w", spans[i].ID, err)
		}
	}
	return bw.Flush()
}

// spanTree indexes spans by parent for subtree walks.
type spanTree struct {
	spans    []spanRec
	children map[int64][]int // parent id → indices into spans
}

func newSpanTree(spans []spanRec) *spanTree {
	st := &spanTree{spans: spans, children: map[int64][]int{}}
	for i := range spans {
		st.children[spans[i].Parent] = append(st.children[spans[i].Parent], i)
	}
	return st
}

// roots returns the indices of the root spans named name, in start order.
func (st *spanTree) roots(name string) []int {
	var out []int
	for _, i := range st.children[0] {
		if st.spans[i].Name == name {
			out = append(out, i)
		}
	}
	return out
}

// walk calls fn on every span strictly below span index i.
func (st *spanTree) walk(i int, fn func(j int)) {
	for _, j := range st.children[st.spans[i].ID] {
		fn(j)
		st.walk(j, fn)
	}
}

// selfTime is span i's duration minus the part of its interval that its
// child spans cover (overlapping children count once).
func (st *spanTree) selfTime(i int) float64 {
	sp := &st.spans[i]
	var iv [][2]float64
	for _, j := range st.children[sp.ID] {
		c := &st.spans[j]
		lo, hi := max(c.Start, sp.Start), min(c.End, sp.End)
		if hi > lo {
			iv = append(iv, [2]float64{lo, hi})
		}
	}
	return sp.dur() - unionLength(iv)
}

// unionLength returns the total length covered by a set of intervals.
func unionLength(iv [][2]float64) float64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi float64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curLo, curHi, open = x[0], x[1], true
		case x[0] > curHi:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		case x[1] > curHi:
			curHi = x[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// layerSelf sums self time by span name over root i's subtree, the root
// included.
func (st *spanTree) layerSelf(i int) map[string]float64 {
	out := map[string]float64{st.spans[i].Name: st.selfTime(i)}
	st.walk(i, func(j int) { out[st.spans[j].Name] += st.selfTime(j) })
	return out
}

// layerTotal sums the durations, and optionally one attribute, of the
// spans named name below root i, and counts them.
func (st *spanTree) layerTotal(i int, name, attr string) (dur, attrSum float64, n int) {
	st.walk(i, func(j int) {
		sp := &st.spans[j]
		if sp.Name != name {
			return
		}
		n++
		dur += sp.dur()
		if attr != "" {
			attrSum += sp.Attrs[attr]
		}
	})
	return dur, attrSum, n
}
