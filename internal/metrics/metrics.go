// Package metrics computes the QoS metrics of the paper's evaluation: the
// tail characterization of §2.2 (ideal completion time, tail slowdown,
// tail fractions), the Tail Removal Efficiency of §4.2, the execution
// stability of §4.3.2 and the prediction success rate of §4.3.3.
package metrics

import (
	"math"
	"sort"
)

// TailStats characterizes one BoT execution's tail (§2.2, Fig 1).
type TailStats struct {
	Size int
	// CompletionTime is the actual completion time of the BoT.
	CompletionTime float64
	// TC90 is tc(0.9): the elapsed time at which 90% of tasks completed.
	TC90 float64
	// IdealTime is tc(0.9)/0.9, the completion time an infrastructure with
	// constant completion rate would have achieved.
	IdealTime float64
	// Slowdown is CompletionTime/IdealTime ("tail slowdown").
	Slowdown float64
	// TailTasks is the number of tasks completing after IdealTime (the
	// "tail part" of the BoT).
	TailTasks int
	// TailTaskFraction is TailTasks/Size (Table 1, "% of BoT in tail").
	TailTaskFraction float64
	// TailTimeFraction is (CompletionTime − IdealTime)/CompletionTime
	// (Table 1, "% of execution time in tail"; 0 when no tail).
	TailTimeFraction float64
}

// ComputeTail derives the tail statistics from per-task completion times
// (seconds since BoT submission, any order). It returns ok=false for fewer
// than 2 completions.
func ComputeTail(completionTimes []float64) (TailStats, bool) {
	n := len(completionTimes)
	if n < 2 {
		return TailStats{}, false
	}
	times := make([]float64, n)
	copy(times, completionTimes)
	sort.Float64s(times)
	// tc(0.9): completion instant of the ceil(0.9n)-th task.
	idx := int(math.Ceil(0.9*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	tc90 := times[idx]
	ideal := tc90 / 0.9
	actual := times[n-1]
	st := TailStats{
		Size:           n,
		CompletionTime: actual,
		TC90:           tc90,
		IdealTime:      ideal,
		Slowdown:       actual / ideal,
	}
	for _, t := range times {
		if t > ideal {
			st.TailTasks++
		}
	}
	st.TailTaskFraction = float64(st.TailTasks) / float64(n)
	if actual > ideal {
		st.TailTimeFraction = (actual - ideal) / actual
	}
	return st, true
}

// TailRemovalEfficiency is the §4.2.1 metric:
//
//	TRE = 1 − (tspeq − tideal)/(tnospeq − tideal)
//
// where tnospeq/tideal come from the paired baseline execution (same seed,
// no SpeQuloS) and tspeq from the SpeQuloS execution. The result is clamped
// to [0, 1]: SpeQuloS beating the ideal time counts as full removal, and a
// slower-than-baseline run as zero. ok is false when the baseline had no
// measurable tail (the metric is undefined).
func TailRemovalEfficiency(tspeq, tnospeq, tideal float64) (float64, bool) {
	denom := tnospeq - tideal
	if denom <= 1e-9 {
		return 0, false
	}
	tre := 1 - (tspeq-tideal)/denom
	if tre < 0 {
		tre = 0
	}
	if tre > 1 {
		tre = 1
	}
	return tre, true
}

// NormalizeByMean divides each value by the sample mean — the §4.3.2
// "repartition around the average" stability transform. A nil result means
// the mean was zero or the sample empty.
func NormalizeByMean(values []float64) []float64 {
	if len(values) == 0 {
		return nil
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	mean := sum / float64(len(values))
	if mean == 0 {
		return nil
	}
	out := make([]float64, len(values))
	for i, v := range values {
		out[i] = v / mean
	}
	return out
}

// CompletionSeries converts per-task completion times into the cumulative
// completion-ratio curve of Fig 1: points (t_i, i/n) on sorted times.
type SeriesPoint struct{ T, Ratio float64 }

// CompletionSeries builds the Fig 1 curve.
func CompletionSeries(completionTimes []float64) []SeriesPoint {
	n := len(completionTimes)
	if n == 0 {
		return nil
	}
	times := make([]float64, n)
	copy(times, completionTimes)
	sort.Float64s(times)
	out := make([]SeriesPoint, n)
	for i, t := range times {
		out[i] = SeriesPoint{T: t, Ratio: float64(i+1) / float64(n)}
	}
	return out
}
