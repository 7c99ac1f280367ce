package main

import (
	"math"
	"sort"
)

// tailLadder lists the percentiles a tail may be reported at, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// dist is a timing reported the way the benchmark reports every
// distribution: the median and the highest percentile that has at least
// minBeyond samples beyond it, with the sample count.
type dist struct {
	N       int
	Median  float64
	TailPct float64 // 0 when fewer than 2·minBeyond samples support no percentile
	Tail    float64
}

// summarize computes the dist of xs, which it does not modify. With fewer
// than 2·minBeyond samples no percentile qualifies: TailPct is 0 and Tail
// repeats the median.
func summarize(xs []float64) dist {
	d := dist{N: len(xs)}
	if len(xs) == 0 {
		d.Median, d.Tail = math.NaN(), math.NaN()
		return d
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	d.Median = quantile(s, 0.5)
	d.Tail = d.Median
	for _, p := range tailLadder {
		// The tolerance absorbs rounding in 100−p for p = 99.9.
		if float64(len(s))*(100-p)/100 >= minBeyond-1e-6 {
			d.TailPct, d.Tail = p, quantile(s, p/100)
			break
		}
	}
	return d
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of an ascending-sorted,
// non-empty slice by linear interpolation between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// median returns the median of xs, or NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// geoMean returns the geometric mean of positive xs, or NaN for an empty
// slice.
func geoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
