// Package stats provides the probability distributions, summary statistics
// and fitting helpers used across the SpeQuloS reproduction: workload
// generation (Table 3), availability-trace synthesis (Table 2), node power
// models, and the Oracle's α-calibration.
package stats

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Dist is a continuous probability distribution that can be sampled and
// whose mean is known (analytically or numerically).
type Dist interface {
	Sample(r *rand.Rand) float64
	Mean() float64
	String() string
}

// Constant is a degenerate distribution.
type Constant struct{ Value float64 }

// Sample implements Dist.
func (c Constant) Sample(*rand.Rand) float64 { return c.Value }

// Mean implements Dist.
func (c Constant) Mean() float64 { return c.Value }

// String implements Dist.
func (c Constant) String() string { return fmt.Sprintf("const(%g)", c.Value) }

// Normal is the Gaussian distribution with mean Mu and standard deviation
// Sigma.
type Normal struct{ Mu, Sigma float64 }

// Sample implements Dist.
func (n Normal) Sample(r *rand.Rand) float64 { return n.Mu + n.Sigma*r.NormFloat64() }

// Mean implements Dist.
func (n Normal) Mean() float64 { return n.Mu }

// String implements Dist.
func (n Normal) String() string { return fmt.Sprintf("norm(µ=%g,σ=%g)", n.Mu, n.Sigma) }

// TruncatedNormal is a Gaussian resampled (up to 64 tries, then clamped)
// into [Lo, Hi]. It models node power heterogeneity, which must stay
// positive (Table 2: e.g. 1000±250 nops/s for desktop nodes).
type TruncatedNormal struct {
	Mu, Sigma float64
	Lo, Hi    float64
}

// Sample implements Dist.
func (n TruncatedNormal) Sample(r *rand.Rand) float64 {
	for i := 0; i < 64; i++ {
		v := n.Mu + n.Sigma*r.NormFloat64()
		if v >= n.Lo && v <= n.Hi {
			return v
		}
	}
	return math.Min(math.Max(n.Mu, n.Lo), n.Hi)
}

// Mean implements Dist (an approximation for mild truncation).
func (n TruncatedNormal) Mean() float64 { return n.Mu }

// String implements Dist.
func (n TruncatedNormal) String() string {
	return fmt.Sprintf("tnorm(µ=%g,σ=%g,[%g,%g])", n.Mu, n.Sigma, n.Lo, n.Hi)
}

// Weibull is the Weibull distribution with scale Lambda and shape K, used
// by the RANDOM BoT class's task inter-arrival process
// (Table 3: weib(λ=91.98, k=0.57), following Minh & Wolters).
type Weibull struct{ Lambda, K float64 }

// Sample implements Dist (inverse-CDF sampling).
func (w Weibull) Sample(r *rand.Rand) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return w.Lambda * math.Pow(-math.Log(u), 1/w.K)
}

// Mean implements Dist.
func (w Weibull) Mean() float64 { return w.Lambda * math.Gamma(1+1/w.K) }

// String implements Dist.
func (w Weibull) String() string { return fmt.Sprintf("weib(λ=%g,k=%g)", w.Lambda, w.K) }
