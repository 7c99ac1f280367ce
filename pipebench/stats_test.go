package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so summarize must sort a copy
	}
	return xs
}

func TestSummarizeTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n       int
		tailPct float64
	}{
		{1, 0}, {19, 0}, // no percentile has ten samples beyond it
		{20, 50}, {39, 50},
		{40, 75}, {99, 75},
		{100, 90}, {199, 90},
		{200, 95}, {999, 95},
		{1000, 99}, {9999, 99},
		{10000, 99.9},
	} {
		xs := seq(tc.n)
		d := summarize(xs)
		if d.N != tc.n || d.TailPct != tc.tailPct {
			t.Errorf("n=%d: got N=%d tail p%v, want p%v", tc.n, d.N, d.TailPct, tc.tailPct)
		}
		if beyond := float64(tc.n) * (100 - d.TailPct) / 100; d.TailPct > 0 && beyond < minBeyond-1e-6 {
			t.Errorf("n=%d: only %.1f samples beyond p%v", tc.n, beyond, d.TailPct)
		}
		if want := float64(tc.n+1) / 2; d.Median != want {
			t.Errorf("n=%d: median %v, want %v", tc.n, d.Median, want)
		}
		if d.TailPct == 0 && d.Tail != d.Median {
			t.Errorf("n=%d: unsupported tail %v should repeat the median %v", tc.n, d.Tail, d.Median)
		}
		if xs[0] != float64(tc.n) {
			t.Errorf("n=%d: summarize reordered its input", tc.n)
		}
	}
}

func TestSummarizeValues(t *testing.T) {
	d := summarize(seq(100)) // 1..100
	if math.Abs(d.Tail-90.1) > 1e-9 {
		t.Errorf("p90 of 1..100 = %v, want 90.1 (linear interpolation)", d.Tail)
	}
	same := summarize([]float64{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7})
	if same.Median != 7 || same.Tail != 7 || same.TailPct != 50 {
		t.Errorf("constant sample: %+v", same)
	}
	empty := summarize(nil)
	if empty.N != 0 || !math.IsNaN(empty.Median) || !math.IsNaN(empty.Tail) {
		t.Errorf("empty sample: %+v, want NaN median and tail", empty)
	}
}

func TestMedianAndGeoMean(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(geoMean(nil)) {
		t.Error("empty median and geometric mean must be NaN")
	}
	if g := geoMean([]float64{1, 4, 16}); math.Abs(g-4) > 1e-12 {
		t.Errorf("geoMean = %v, want 4", g)
	}
}

func TestUnionLengthAndSelfTime(t *testing.T) {
	if got := unionLength([][2]float64{{3, 5}, {0, 1}, {0.5, 2}, {4, 4.5}}); math.Abs(got-4) > 1e-12 {
		t.Errorf("unionLength = %v, want 4", got)
	}
	// A root of 10 s with two overlapping children (1–4, 3–6) and a
	// grandchild: the root's self time is 10 − 5, the first child's is
	// 3 − 1.
	st := newSpanTree([]spanRec{
		{ID: 1, Name: "pipeline", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "core.sample", Start: 1, End: 4},
		{ID: 3, Parent: 1, Name: "core.sample", Start: 3, End: 6},
		{ID: 4, Parent: 2, Name: "core.weight", Start: 2, End: 3},
	})
	if got := st.selfTime(0); math.Abs(got-5) > 1e-12 {
		t.Errorf("root self = %v, want 5", got)
	}
	self := st.layerSelf(0)
	if math.Abs(self["core.sample"]-5) > 1e-12 || math.Abs(self["core.weight"]-1) > 1e-12 {
		t.Errorf("layer self times %v", self)
	}
	var total float64
	for _, s := range self {
		total += s
	}
	if total < 10 {
		t.Errorf("self times sum to %v, less than the root's 10 s", total)
	}
	if d, _, n := st.layerTotal(0, "core.sample", ""); d != 6 || n != 2 {
		t.Errorf("layerTotal = %v over %d spans", d, n)
	}
}
