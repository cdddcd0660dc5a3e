// Package spot simulates an EC2-style spot-instance market and derives
// BE-DCI availability traces from it, reproducing the paper's spot10 and
// spot100 scenarios (§4.1.1).
//
// The paper's usage model: a user sets a total renting budget of S dollars
// per hour and places a persistent ladder of n bids at prices S/i
// (i = 1..n). When the market price is p, every bid with S/i ≥ p holds a
// running instance, so the number of running instances is ⌊S/p⌋ and the
// total spend rate stays ≈ S regardless of the price. Instance i is
// therefore available exactly while p(t) ≤ S/(i+1), which converts a price
// series into an availability trace directly.
package spot

import (
	"math"

	"spequlos/internal/sim"
	"spequlos/internal/stats"
	"spequlos/internal/trace"
)

// Market models the spot price process as three components: a periodic
// demand cycle (spot prices follow intra-day load patterns, which is what
// makes the published availability-run quartiles cluster tightly around
// 1.2–1.5 h), a mean-reverting noise term, and exponentially-decaying
// demand spikes arriving as a Poisson process (the deep fleet knock-outs
// behind Table 2's minimum counts). Calibrated so the ⌊S/p⌋ instance-count
// statistics match Table 2 (means ≈ 82 and ≈ 824 for S=$10 and $100/h).
type Market struct {
	Step        float64 // price re-evaluation period, seconds
	BasePrice   float64 // typical price, $/h (c1.large-class in the paper)
	FloorPrice  float64 // market price never goes below this
	CeilPrice   float64 // demand spikes saturate here (0 = uncapped)
	CycleAmp    float64 // relative amplitude of the periodic demand cycle
	CyclePeriod float64 // demand cycle period, seconds
	BaseStd     float64 // stationary std of the relative OU noise
	RelaxTime   float64 // OU mean-reversion time constant, seconds
	SpikeRate   float64 // demand spikes per day
	SpikeMean   float64 // mean spike amplitude, $/h
	SpikeDecay  float64 // spike decay time constant, seconds
}

// DefaultMarket returns the market calibration used by the spot10/spot100
// profiles.
func DefaultMarket() Market {
	return Market{
		Step:        300,
		BasePrice:   0.1180,
		FloorPrice:  0.1135,
		CeilPrice:   0.345,
		CycleAmp:    0.018,
		CyclePeriod: 3 * 3600,
		BaseStd:     0.008,
		RelaxTime:   2 * 3600,
		SpikeRate:   6,
		SpikeMean:   0.018,
		SpikeDecay:  5500,
	}
}

// Prices generates the piecewise-constant price series for the given length
// (seconds). The i-th element is the price during [i·Step, (i+1)·Step).
func (m Market) Prices(seed uint64, length float64) []float64 {
	r := sim.NewRNG(seed).Fork("spot:market")
	n := int(math.Ceil(length/m.Step)) + 1
	prices := make([]float64, n)
	theta := 1.0 / m.RelaxTime
	sigma := m.BaseStd * math.Sqrt(2*theta)
	x := 0.0
	spike := 0.0
	spikeDecayPerStep := math.Exp(-m.Step / m.SpikeDecay)
	spikeProbPerStep := m.SpikeRate * m.Step / 86400
	phase := r.Float64() * 2 * math.Pi
	for i := range prices {
		t := float64(i) * m.Step
		x += -theta*x*m.Step + sigma*math.Sqrt(m.Step)*r.NormFloat64()
		spike *= spikeDecayPerStep
		if r.Float64() < spikeProbPerStep {
			spike += m.SpikeMean * (0.3 + r.ExpFloat64())
		}
		cycle := 0.0
		if m.CyclePeriod > 0 {
			cycle = m.CycleAmp * math.Sin(2*math.Pi*t/m.CyclePeriod+phase)
		}
		p := m.BasePrice*(1+cycle+x) + spike
		if p < m.FloorPrice {
			p = m.FloorPrice
		}
		if m.CeilPrice > 0 && p > m.CeilPrice {
			p = m.CeilPrice
		}
		prices[i] = p
	}
	return prices
}

// InstanceCount returns ⌊budget/price⌋, the number of instances the bid
// ladder holds at the given price.
func InstanceCount(budgetPerHour, price float64) int {
	if price <= 0 {
		return 0
	}
	return int(budgetPerHour / price)
}

// Profile is a spot-instance BE-DCI: a market plus an hourly budget.
// It implements trace.Source.
type Profile struct {
	Name         string
	LengthDays   float64
	BudgetPerHr  float64 // S: total renting cost per hour, dollars
	Market       Market
	Power        stats.Dist
	MaxInstances int // ladder depth n; 0 derives it from the floor price
}

// Spot10 and Spot100 are the Table 2 spot traces: the same market with
// renting budgets of $10/h and $100/h respectively (Amazon c1.large price
// history, January–March 2011 in the paper).
var (
	Spot10 = Profile{
		Name: "spot10", LengthDays: 90, BudgetPerHr: 10,
		Market: DefaultMarket(),
		Power:  stats.TruncatedNormal{Mu: 3000, Sigma: 300, Lo: 1000, Hi: 5000},
	}
	Spot100 = Profile{
		Name: "spot100", LengthDays: 90, BudgetPerHr: 100,
		Market: DefaultMarket(),
		Power:  stats.TruncatedNormal{Mu: 3000, Sigma: 300, Lo: 1000, Hi: 5000},
	}
)

// Profiles returns the two published spot traces.
func Profiles() []Profile { return []Profile{Spot10, Spot100} }

// ProfileByName looks up a spot profile.
func ProfileByName(name string) (Profile, bool) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// ladderDepth returns the number of bids, i.e. the maximum possible
// instance count at the floor price.
func (p Profile) ladderDepth() int {
	if p.MaxInstances > 0 {
		return p.MaxInstances
	}
	return InstanceCount(p.BudgetPerHr, p.Market.FloorPrice)
}

// Generate implements trace.Source: instance i (0-based) is available while
// price ≤ S/(i+1); consecutive available steps merge into intervals.
// A pool cap keeps the lowest-index (most stable) instances, which is the
// subset a budget-capped user would effectively retain.
func (p Profile) Generate(seed uint64, length float64, pool int) *trace.Trace {
	if length <= 0 {
		length = p.LengthDays * 86400
	}
	prices := p.Market.Prices(seed, length)
	n := p.ladderDepth()
	if pool > 0 && pool < n {
		n = pool
	}
	root := sim.NewRNG(seed).Fork("spot:" + p.Name)
	tr := &trace.Trace{Name: p.Name, Length: length, Nodes: make([]*trace.Node, 0, n)}
	step := p.Market.Step
	for i := 0; i < n; i++ {
		r := root.ForkN("instance", i)
		power := p.Power.Sample(r.Rand)
		var ivs []trace.Interval
		threshold := p.BudgetPerHr / float64(i+1)
		open := -1.0
		for s, price := range prices {
			t0 := float64(s) * step
			if t0 >= length {
				break
			}
			avail := price <= threshold
			if avail && open < 0 {
				open = t0
			}
			if !avail && open >= 0 {
				ivs = append(ivs, trace.Interval{Start: open, End: t0})
				open = -1
			}
		}
		if open >= 0 {
			ivs = append(ivs, trace.Interval{Start: open, End: length})
		}
		tr.Nodes = append(tr.Nodes, trace.NewNode(i, power, ivs))
	}
	return tr
}
