package trace

import (
	"math"
	"slices"
	"sort"

	"spequlos/internal/stats"
)

// MeasureStatsSweep is the reference MeasureStats is held to, field for
// field: the sweep over the sorted interval starts and ends it replaced,
// summarised by sweepSummarize. Tests of this package's external test
// package call it.
func (t *Trace) MeasureStatsSweep(step float64) Stats {
	if step <= 0 {
		step = 600
	}
	total := 0
	for _, n := range t.Nodes {
		total += len(n.all())
	}
	avail := make([]float64, 0, total)
	unavail := make([]float64, 0, total)
	power := make([]float64, 0, len(t.Nodes))
	// Sweep-line concurrency sampling over the sorted interval starts and
	// ends: the count at an instant is starts <= it minus ends <= it, so the
	// order of a start and an end at the same instant cannot matter.
	starts := make([]float64, 0, total)
	ends := make([]float64, 0, total)
	for _, n := range t.Nodes {
		power = append(power, n.Power)
		ivs := n.all()
		for i, iv := range ivs {
			avail = append(avail, iv.Duration())
			if i > 0 {
				unavail = append(unavail, iv.Start-ivs[i-1].End)
			}
			starts = append(starts, iv.Start)
			ends = append(ends, iv.End)
		}
	}
	slices.Sort(starts)
	slices.Sort(ends)
	conc := make([]float64, 0, max(0, int(t.Length/step)))
	si, ei := 0, 0
	// Sample strictly inside the window: at the exact trace end every
	// interval closes, which would register a spurious zero.
	for at := step; at < t.Length; at += step {
		for si < len(starts) && starts[si] <= at {
			si++
		}
		for ei < len(ends) && ends[ei] <= at {
			ei++
		}
		conc = append(conc, float64(si-ei))
	}
	return Stats{
		Name:        t.Name,
		LengthDays:  t.Length / 86400,
		Concurrency: sweepSummarize(conc),
		Avail:       sweepSummarize(avail),
		Unavail:     sweepSummarize(unavail),
		Power:       sweepSummarize(power),
	}
}

// sweepSummarize is stats.Summarize as it was before it took its sort and
// arithmetic from stats.SummarizeInPlace: a copy sorted by sort.Float64s.
func sweepSummarize(xs []float64) stats.Summary {
	if len(xs) == 0 {
		return stats.Summary{}
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
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
	out := stats.Summary{
		N: len(s), Mean: mean, Std: std,
		Min: s[0], Max: s[len(s)-1],
		Q25: stats.QuantileSorted(s, 0.25), Q50: stats.QuantileSorted(s, 0.5), Q75: stats.QuantileSorted(s, 0.75),
		P05: stats.QuantileSorted(s, 0.05), P95: stats.QuantileSorted(s, 0.95),
		Sum: sum,
	}
	if mean != 0 {
		out.CoefficientOfVar = std / mean
	}
	out.InterquartileRange = out.Q75 - out.Q25
	return out
}
