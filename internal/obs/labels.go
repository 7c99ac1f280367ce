package obs

import (
	"sort"
	"strings"
	"sync"
)

// Labeled metric families. A vector is a family of metrics of one kind
// sharing a name and a fixed set of label names; each distinct label-value
// tuple owns one child metric. Resolving a child (With) takes the family
// lock and builds a map key, so hot paths resolve their handles once up
// front and then touch only the returned *Counter/*Gauge/*Histogram —
// atomics all the way down, zero allocations per update. The nil-observer
// contract extends to vectors: every method is safe on a nil receiver and
// a nil registry hands out detached families whose children record into
// the void.

// labelChild pairs one label-value tuple with its position in the family,
// kept so exposition can render structured labels without re-splitting
// map keys.
type labelChild struct {
	values []string
}

// checkLabelCardinality panics when a With call does not supply exactly
// one value per declared label name — a programming error, like indexing
// out of range.
func checkLabelCardinality(name string, labels, values []string) {
	if len(values) != len(labels) {
		panic("obs: " + name + " needs " + strings.Join(labels, ",") +
			" label values, got wrong count")
	}
}

// labelKey builds the child map key for a label-value tuple. \xff cannot
// appear in sane label values; colliding tuples would have to embed it.
func labelKey(values []string) string {
	return strings.Join(values, "\xff")
}

// CounterVec is a family of counters keyed by label values.
type CounterVec struct {
	name   string
	labels []string

	mu       sync.RWMutex
	children map[string]*Counter
	tuples   map[string]labelChild
}

// newCounterVec builds an (attached or detached) counter family.
func newCounterVec(name string, labels []string) *CounterVec {
	return &CounterVec{name: name, labels: append([]string(nil), labels...)}
}

// With returns the child counter for the given label values (one per label
// name, in declaration order), creating it on first use. Resolve once and
// keep the handle on hot paths. On a nil vector it returns a detached
// counter.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return &Counter{}
	}
	checkLabelCardinality(v.name, v.labels, values)
	key := labelKey(values)
	v.mu.RLock()
	c := v.children[key]
	v.mu.RUnlock()
	if c != nil {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c = v.children[key]; c == nil {
		if v.children == nil {
			v.children = make(map[string]*Counter)
			v.tuples = make(map[string]labelChild)
		}
		c = &Counter{}
		v.children[key] = c
		v.tuples[key] = labelChild{values: append([]string(nil), values...)}
	}
	return c
}

// GaugeVec is a family of gauges keyed by label values.
type GaugeVec struct {
	name   string
	labels []string

	mu       sync.RWMutex
	children map[string]*Gauge
	tuples   map[string]labelChild
}

func newGaugeVec(name string, labels []string) *GaugeVec {
	return &GaugeVec{name: name, labels: append([]string(nil), labels...)}
}

// With returns the child gauge for the given label values, creating it on
// first use. On a nil vector it returns a detached gauge.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return &Gauge{}
	}
	checkLabelCardinality(v.name, v.labels, values)
	key := labelKey(values)
	v.mu.RLock()
	g := v.children[key]
	v.mu.RUnlock()
	if g != nil {
		return g
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if g = v.children[key]; g == nil {
		if v.children == nil {
			v.children = make(map[string]*Gauge)
			v.tuples = make(map[string]labelChild)
		}
		g = &Gauge{}
		v.children[key] = g
		v.tuples[key] = labelChild{values: append([]string(nil), values...)}
	}
	return g
}

// HistogramVec is a family of histograms keyed by label values; all
// children share the bounds fixed at family creation.
type HistogramVec struct {
	name   string
	labels []string
	bounds []float64

	mu       sync.RWMutex
	children map[string]*Histogram
	tuples   map[string]labelChild
}

func newHistogramVec(name string, bounds []float64, labels []string) *HistogramVec {
	return &HistogramVec{
		name:   name,
		labels: append([]string(nil), labels...),
		bounds: append([]float64(nil), bounds...),
	}
}

// With returns the child histogram for the given label values, creating
// it (with the family's bounds) on first use. On a nil vector it returns
// a detached histogram.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return NewHistogram(nil)
	}
	checkLabelCardinality(v.name, v.labels, values)
	key := labelKey(values)
	v.mu.RLock()
	h := v.children[key]
	v.mu.RUnlock()
	if h != nil {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h = v.children[key]; h == nil {
		if v.children == nil {
			v.children = make(map[string]*Histogram)
			v.tuples = make(map[string]labelChild)
		}
		h = NewHistogram(v.bounds)
		v.children[key] = h
		v.tuples[key] = labelChild{values: append([]string(nil), values...)}
	}
	return h
}

// CounterVec returns the named counter family with the given label names,
// creating it on first use; later callers get the existing family
// regardless of label names (first registration wins, like Histogram
// bounds). On a nil registry it returns a detached family.
func (r *Registry) CounterVec(name string, labels ...string) *CounterVec {
	if r == nil {
		return newCounterVec(name, labels)
	}
	r.mu.RLock()
	v := r.counterVecs[name]
	r.mu.RUnlock()
	if v != nil {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v = r.counterVecs[name]; v == nil {
		if r.counterVecs == nil {
			r.counterVecs = make(map[string]*CounterVec)
		}
		v = newCounterVec(name, labels)
		r.counterVecs[name] = v
	}
	return v
}

// GaugeVec returns the named gauge family, creating it on first use. On a
// nil registry it returns a detached family.
func (r *Registry) GaugeVec(name string, labels ...string) *GaugeVec {
	if r == nil {
		return newGaugeVec(name, labels)
	}
	r.mu.RLock()
	v := r.gaugeVecs[name]
	r.mu.RUnlock()
	if v != nil {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v = r.gaugeVecs[name]; v == nil {
		if r.gaugeVecs == nil {
			r.gaugeVecs = make(map[string]*GaugeVec)
		}
		v = newGaugeVec(name, labels)
		r.gaugeVecs[name] = v
	}
	return v
}

// HistogramVec returns the named histogram family with the given bounds
// and label names, creating it on first use. On a nil registry it returns
// a detached family.
func (r *Registry) HistogramVec(name string, bounds []float64, labels ...string) *HistogramVec {
	if r == nil {
		return newHistogramVec(name, bounds, labels)
	}
	r.mu.RLock()
	v := r.histogramVecs[name]
	r.mu.RUnlock()
	if v != nil {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v = r.histogramVecs[name]; v == nil {
		if r.histogramVecs == nil {
			r.histogramVecs = make(map[string]*HistogramVec)
		}
		v = newHistogramVec(name, bounds, labels)
		r.histogramVecs[name] = v
	}
	return v
}

// sortedChildKeys returns the child map keys of one family in
// deterministic (label-tuple) order.
func sortedChildKeys[M any](children map[string]M) []string {
	keys := make([]string, 0, len(children))
	for k := range children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
