package stats

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// QuartileDist is a distribution specified by its three quartiles
// (q25, q50, q75), as published for the availability and unavailability
// durations of every BE-DCI trace in Table 2 of the paper.
//
// The quantile function interpolates geometrically between the quartiles
// (durations are naturally log-scaled) and ramps geometrically into both
// tails:
//
//	u = 0            Q = Min
//	u ∈ (0,0.25)     Q(u) = q25·(Min/q25)^{(0.25−u)/0.25}
//	u ∈ [0.25,0.50]  Q(u) = q25·(q50/q25)^{(u−0.25)/0.25}
//	u ∈ [0.50,0.75]  Q(u) = q50·(q75/q50)^{(u−0.50)/0.25}
//	u ∈ (0.75,1]     Q(u) = q75·TailCap^{(u−0.75)/0.25}
//
// Sampling exactly reproduces the published quartiles while keeping tail
// weight configurable. The right tail matters: count-weighted quartiles
// hide that a minority of long intervals can carry most of the machine
// time (e.g. night-long best-effort slots on Grid'5000, where the
// availability quartiles are tens of seconds yet SMALL tasks of 20 CPU
// minutes do complete). TailCap sets Q(1)/Q(0.75) per trace profile.
type QuartileDist struct {
	Q25, Q50, Q75 float64
	Min           float64 // floor for the left tail (e.g. 1s)
	TailCap       float64 // right tail cap as a multiple of Q75 (e.g. 8)
}

// NewQuartileDist validates and builds a QuartileDist with the given floor
// and tail cap. Quartiles must be positive and non-decreasing.
func NewQuartileDist(q25, q50, q75, min, tailCap float64) (QuartileDist, error) {
	switch {
	case q25 <= 0 || q50 <= 0 || q75 <= 0:
		return QuartileDist{}, fmt.Errorf("stats: quartiles must be positive, got (%g,%g,%g)", q25, q50, q75)
	case q25 > q50 || q50 > q75:
		return QuartileDist{}, fmt.Errorf("stats: quartiles must be non-decreasing, got (%g,%g,%g)", q25, q50, q75)
	case min <= 0 || min > q25:
		return QuartileDist{}, fmt.Errorf("stats: floor %g must be in (0,%g]", min, q25)
	case tailCap < 1:
		return QuartileDist{}, fmt.Errorf("stats: tail cap %g must be >= 1", tailCap)
	}
	return QuartileDist{Q25: q25, Q50: q50, Q75: q75, Min: min, TailCap: tailCap}, nil
}

// MustQuartileDist is NewQuartileDist that panics on error; for package-level
// trace profile tables.
func MustQuartileDist(q25, q50, q75, min, tailCap float64) QuartileDist {
	d, err := NewQuartileDist(q25, q50, q75, min, tailCap)
	if err != nil {
		panic(err)
	}
	return d
}

// Quantile is the inverse CDF at u ∈ [0,1].
func (d QuartileDist) Quantile(u float64) float64 {
	switch {
	case u <= 0:
		return d.Min
	case u >= 1:
		return d.Q75 * d.TailCap
	}
	geo := func(lo, hi, f float64) float64 {
		if lo == hi {
			return lo
		}
		return lo * math.Pow(hi/lo, f)
	}
	switch {
	case u < 0.25:
		return geo(d.Min, d.Q25, u/0.25)
	case u <= 0.5:
		return geo(d.Q25, d.Q50, (u-0.25)/0.25)
	case u <= 0.75:
		return geo(d.Q50, d.Q75, (u-0.5)/0.25)
	default:
		return geo(d.Q75, d.Q75*d.TailCap, (u-0.75)/0.25)
	}
}

// Sample draws a value via inverse-transform sampling.
func (d QuartileDist) Sample(r *rand.Rand) float64 { return d.Quantile(r.Float64()) }

// QuartileSampler is a draw-optimized view of a QuartileDist for hot
// sampling loops (trace synthesis draws millions of interval durations per
// campaign). It precomputes the per-segment geometric ratios once, so each
// draw performs a single math.Pow on a cached ratio instead of re-deriving
// the segment endpoints. Values are bit-identical to QuartileDist.Quantile:
// the ratio divisions happen in the same order, only earlier.
type QuartileSampler struct {
	min, q25, q50, q75, cap float64
	rMin, r25, r50, r75     float64 // hi/lo ratio of each segment
}

// Sampler builds the precomputed sampler for the distribution.
func (d QuartileDist) Sampler() QuartileSampler {
	s := QuartileSampler{min: d.Min, q25: d.Q25, q50: d.Q50, q75: d.Q75, cap: d.Q75 * d.TailCap}
	ratio := func(lo, hi float64) float64 {
		if lo == hi {
			return 1
		}
		return hi / lo
	}
	s.rMin = ratio(d.Min, d.Q25)
	s.r25 = ratio(d.Q25, d.Q50)
	s.r50 = ratio(d.Q50, d.Q75)
	s.r75 = ratio(d.Q75, s.cap)
	return s
}

// Quantile is the inverse CDF at u ∈ [0,1], identical in value to
// QuartileDist.Quantile.
func (s QuartileSampler) Quantile(u float64) float64 {
	switch {
	case u <= 0:
		return s.min
	case u >= 1:
		return s.cap
	case u < 0.25:
		return geoSeg(s.min, s.rMin, u/0.25)
	case u <= 0.5:
		return geoSeg(s.q25, s.r25, (u-0.25)/0.25)
	case u <= 0.75:
		return geoSeg(s.q50, s.r50, (u-0.5)/0.25)
	default:
		return geoSeg(s.q75, s.r75, (u-0.75)/0.25)
	}
}

// geoSeg interpolates geometrically along a segment with a precomputed
// hi/lo ratio: lo·ratio^f, matching QuartileDist.Quantile's lo·(hi/lo)^f.
func geoSeg(lo, ratio, f float64) float64 {
	if ratio == 1 {
		return lo
	}
	return lo * math.Pow(ratio, f)
}

// Sample draws one value via inverse-transform sampling.
func (s QuartileSampler) Sample(r *rand.Rand) float64 { return s.Quantile(r.Float64()) }

// Mean integrates the quantile function numerically (Simpson's rule on a
// fine u-grid). The result is exact enough for duty-cycle calibration.
func (d QuartileDist) Mean() float64 {
	const n = 2048 // even
	h := 1.0 / n
	sum := d.Quantile(0) + d.Quantile(1)
	for i := 1; i < n; i++ {
		w := 2.0
		if i%2 == 1 {
			w = 4.0
		}
		sum += w * d.Quantile(float64(i)*h)
	}
	return sum * h / 3
}

// String implements Dist.
func (d QuartileDist) String() string {
	return fmt.Sprintf("quartiles(%g,%g,%g)", d.Q25, d.Q50, d.Q75)
}
