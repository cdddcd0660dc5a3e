package stats

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N                  int
	Mean, Std          float64
	Min, Max           float64
	Q25, Q50, Q75      float64
	P05, P95           float64
	Sum                float64
	CoefficientOfVar   float64 // Std/Mean (0 when Mean==0)
	InterquartileRange float64
}

// Summarize computes descriptive statistics of a copy of xs, leaving xs as
// it was.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	return SummarizeInPlace(slices.Clone(xs))
}

// SummarizeInPlace sorts s ascending in place and computes its descriptive
// statistics: Summarize without the copy, for a caller that owns the
// sample. Every sum runs over the sorted sample.
func SummarizeInPlace(s []float64) Summary {
	if len(s) == 0 {
		return Summary{}
	}
	sortFloats(s)
	var sum, sq float64
	for _, v := range s {
		sum += v
	}
	mean := sum / float64(len(s))
	for _, v := range s {
		d := v - mean
		sq += d * d
	}
	std := 0.0
	if len(s) > 1 {
		std = math.Sqrt(sq / float64(len(s)-1))
	}
	out := Summary{
		N: len(s), Mean: mean, Std: std,
		Min: s[0], Max: s[len(s)-1],
		Q25: QuantileSorted(s, 0.25), Q50: QuantileSorted(s, 0.5), Q75: QuantileSorted(s, 0.75),
		P05: QuantileSorted(s, 0.05), P95: QuantileSorted(s, 0.95),
		Sum: sum,
	}
	if mean != 0 {
		out.CoefficientOfVar = std / mean
	}
	out.InterquartileRange = out.Q75 - out.Q25
	return out
}

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g std=%.4g min=%.4g q25=%.4g med=%.4g q75=%.4g max=%.4g",
		s.N, s.Mean, s.Std, s.Min, s.Q25, s.Q50, s.Q75, s.Max)
}

// QuantileSorted returns the p-quantile (linear interpolation, type 7) of an
// ascending-sorted sample.
func QuantileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[n-1]
	}
	h := p * float64(n-1)
	lo := int(math.Floor(h))
	frac := h - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// NearestRank sorts a copy of the sample and returns the p-quantile by the
// nearest-rank rule (⌈p·n⌉-th smallest value, 0 for an empty sample).
// Unlike QuantileSorted it never interpolates: the result is always an observed
// value, which is what per-batch completion-time reports quote (a median
// of "12547s" names a real batch's completion, not a synthetic midpoint).
func NearestRank(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// Histogram bins xs into nbins equal-width bins over [lo, hi] and returns
// the fraction of the sample in each bin. Values outside the range, however
// far and ±Inf included, are clamped into the edge bins, matching the
// paper's "repartition function" plots (Fig 7). A NaN lands in no bin and is
// not counted in N, so Frac sums to 1 over the other values.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	Frac   []float64
	N      int
}

// NewHistogram bins the sample.
func NewHistogram(xs []float64, lo, hi float64, nbins int) Histogram {
	if nbins <= 0 || hi <= lo {
		return Histogram{Lo: lo, Hi: hi}
	}
	h := Histogram{Lo: lo, Hi: hi, Counts: make([]int, nbins), Frac: make([]float64, nbins)}
	w := (hi - lo) / float64(nbins)
	for _, v := range xs {
		// Clamp before converting: a float64 beyond int's range has no
		// defined int value.
		f := (v - lo) / w
		switch {
		case f != f:
			continue
		case f < 0:
			f = 0
		case f >= float64(nbins):
			f = float64(nbins - 1)
		}
		h.Counts[int(f)]++
		h.N++
	}
	if h.N > 0 {
		for i, c := range h.Counts {
			h.Frac[i] = float64(c) / float64(h.N)
		}
	}
	return h
}

// BinCenter returns the midpoint of bin i.
func (h Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + (float64(i)+0.5)*w
}

// WeightedMedian returns the weighted median of values: the v minimizing
// Σ w_i·|v − x_i|. It defines the Oracle's α fit (§3.4): α minimizing the
// mean absolute difference between α·base_i and actual_i is the weighted
// median of actual_i/base_i with weights base_i.
//
// Only tests call it: core.Calibration keeps each archive sorted and fits
// incrementally, and its differential test holds every α it yields to this
// function's, bit for bit. Weights are summed in input order for the total
// and in sorted order for the prefix; an incremental fit must do the same.
func WeightedMedian(values, weights []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	type pair struct{ v, w float64 }
	ps := make([]pair, 0, len(values))
	var total float64
	for i, v := range values {
		w := 1.0
		if i < len(weights) {
			w = weights[i]
		}
		if w <= 0 {
			continue
		}
		ps = append(ps, pair{v, w})
		total += w
	}
	if len(ps) == 0 {
		return math.NaN()
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].v < ps[j].v })
	acc := 0.0
	for _, p := range ps {
		acc += p.w
		if acc >= total/2 {
			return p.v
		}
	}
	return ps[len(ps)-1].v
}
