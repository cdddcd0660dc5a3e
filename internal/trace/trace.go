// Package trace models Best-Effort DCI availability traces: for every node,
// the intervals during which it is available to compute, plus its computing
// power in instructions per second.
//
// The paper drives its simulators with traces from the Failure Trace
// Archive (SETI@home, Notre Dame), Grid'5000 best-effort-queue utilization
// charts (Lyon, Grenoble) and Amazon EC2 spot-market price history. Those
// artifacts are not redistributable, but the paper publishes their complete
// statistical profile (Table 2): node count mean/std/min/max, availability
// and unavailability duration quartiles, and node power mean/std. This
// package synthesizes traces matched to those statistics via per-node
// alternating renewal processes with a shared Ornstein–Uhlenbeck duty
// modulation, and can also load externally-provided traces from CSV.
package trace

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"spequlos/internal/sim"
	"spequlos/internal/stats"
)

// Interval is a half-open availability period [Start, End) in seconds.
type Interval struct {
	Start, End float64
}

// Duration returns End-Start.
func (iv Interval) Duration() float64 { return iv.End - iv.Start }

// Node is one resource of a BE-DCI: its compute power (in number of
// instructions per second, "nops/s" in the paper) and the periods during
// which it is available.
type Node struct {
	ID        int
	Power     float64
	Intervals []Interval
}

// AvailableAt reports whether the node is available at time t.
func (n *Node) AvailableAt(t float64) bool {
	i := sort.Search(len(n.Intervals), func(i int) bool { return n.Intervals[i].End > t })
	return i < len(n.Intervals) && n.Intervals[i].Start <= t
}

// Trace is a complete BE-DCI availability trace.
type Trace struct {
	Name   string
	Length float64 // seconds
	Nodes  []*Node
}

// Validate checks structural invariants: intervals sorted, non-overlapping,
// positive, within [0, Length]; powers positive.
func (t *Trace) Validate() error {
	for _, n := range t.Nodes {
		if n.Power <= 0 {
			return fmt.Errorf("trace %s: node %d has non-positive power %g", t.Name, n.ID, n.Power)
		}
		prev := -math.MaxFloat64
		for _, iv := range n.Intervals {
			if iv.End <= iv.Start {
				return fmt.Errorf("trace %s: node %d has empty interval %+v", t.Name, n.ID, iv)
			}
			if iv.Start < prev {
				return fmt.Errorf("trace %s: node %d has overlapping/unsorted intervals", t.Name, n.ID)
			}
			if iv.Start < 0 || iv.End > t.Length+1e-9 {
				return fmt.Errorf("trace %s: node %d interval %+v outside [0,%g]", t.Name, n.ID, iv, t.Length)
			}
			prev = iv.End
		}
	}
	return nil
}

// Bytes estimates the resident heap size of the trace in bytes: the
// dominant term is 16 bytes per interval (two float64s), plus fixed
// per-node and per-trace overheads for the structs, slice headers and
// pointers that hold them. The estimate is deterministic — a pure function
// of the trace's shape — so byte-budgeted admission decisions (the campaign
// trace cache) are reproducible across runs and platforms.
func (t *Trace) Bytes() int64 {
	const (
		intervalBytes = 16 // Interval{Start, End float64}
		nodeBytes     = 48 // Node struct + slice header + *Node in Trace.Nodes
		traceBytes    = 64 // Trace struct + Nodes slice header
	)
	n := int64(traceBytes) + int64(len(t.Name))
	for _, node := range t.Nodes {
		n += nodeBytes + intervalBytes*int64(len(node.Intervals))
	}
	return n
}

// ConcurrencyAt returns the number of nodes available at time t.
func (t *Trace) ConcurrencyAt(at float64) int {
	n := 0
	for _, node := range t.Nodes {
		if node.AvailableAt(at) {
			n++
		}
	}
	return n
}

// Stats are the measured statistics of a trace, directly comparable to the
// published Table 2 profile.
type Stats struct {
	Name        string
	LengthDays  float64
	Concurrency stats.Summary // node counts sampled on a grid
	Avail       stats.Summary // availability interval durations
	Unavail     stats.Summary // unavailability gap durations
	Power       stats.Summary // per-node power
}

// MeasureStats computes trace statistics. Concurrency is sampled every step
// seconds (a non-positive step defaults to 600 s). Unavailability gaps are
// measured between consecutive intervals of the same node (edge gaps at the
// trace boundaries are excluded, as their true length is censored).
func (t *Trace) MeasureStats(step float64) Stats {
	if step <= 0 {
		step = 600
	}
	var avail, unavail, conc, power []float64
	for _, n := range t.Nodes {
		power = append(power, n.Power)
		for i, iv := range n.Intervals {
			avail = append(avail, iv.Duration())
			if i > 0 {
				unavail = append(unavail, iv.Start-n.Intervals[i-1].End)
			}
		}
	}
	// Sweep-line concurrency sampling.
	type edge struct {
		t  float64
		up bool
	}
	var edges []edge
	for _, n := range t.Nodes {
		for _, iv := range n.Intervals {
			edges = append(edges, edge{iv.Start, true}, edge{iv.End, false})
		}
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].t < edges[j].t })
	cur, ei := 0, 0
	// Sample strictly inside the window: at the exact trace end every
	// interval closes, which would register a spurious zero.
	for at := step; at < t.Length; at += step {
		for ei < len(edges) && edges[ei].t <= at {
			if edges[ei].up {
				cur++
			} else {
				cur--
			}
			ei++
		}
		conc = append(conc, float64(cur))
	}
	return Stats{
		Name:        t.Name,
		LengthDays:  t.Length / 86400,
		Concurrency: stats.Summarize(conc),
		Avail:       stats.Summarize(avail),
		Unavail:     stats.Summarize(unavail),
		Power:       stats.Summarize(power),
	}
}

// Source produces traces; implemented by renewal Profiles here and by the
// spot-market generator in internal/spot.
type Source interface {
	TraceName() string
	// Generate synthesizes a trace of the given length (seconds) from the
	// seed. Pool limits the number of nodes generated; pool <= 0 uses the
	// source's full published pool.
	Generate(seed uint64, length float64, pool int) *Trace
}

// Profile describes a renewal-process BE-DCI trace, with the statistics the
// paper publishes in Table 2.
type Profile struct {
	Name       string
	LengthDays float64
	MeanNodes  float64
	StdNodes   float64
	MinNodes   int
	MaxNodes   int
	Avail      stats.QuartileDist // availability durations (Table 2, seconds)
	Unavail    stats.QuartileDist // unavailability durations (Table 2, seconds)
	Power      stats.Dist         // per-node power, nops/s
}

// TraceName implements Source.
func (p Profile) TraceName() string { return p.Name }

// DutyCycle returns the stationary fraction of time a node is available,
// implied by MeanNodes over the full pool.
func (p Profile) DutyCycle() float64 {
	d := p.MeanNodes / float64(p.MaxNodes)
	return math.Min(math.Max(d, 0.02), 0.995)
}

// dormMeanDays is the mean dormancy epoch of the participation layer: when
// the renewal process alone would yield a higher duty cycle than the trace
// shows (long availability runs, short gaps, yet modest concurrency — e.g.
// Notre Dame, where 501 hosts appear over 413 days but only ~180 run at
// once), nodes alternate week-scale active/dormant epochs so that both the
// published duration quartiles and the mean node count hold.
const dormMeanDays = 7.0

// calibration returns the γ scale applied to unavailability durations and
// the participation fraction of the dormancy layer (1 = always enrolled).
// Exactly one of the two mechanisms is active per profile (see DESIGN.md).
func (p Profile) calibration() (gamma, participation float64) {
	d := p.DutyCycle()
	ea, eu := p.Avail.Mean(), p.Unavail.Mean()
	renewalDuty := ea / (ea + eu)
	if renewalDuty <= d {
		// Need more availability than the renewal gives: shrink gaps.
		return ea * (1 - d) / (d * eu), 1
	}
	// Need less: keep the published gap distribution, add dormancy.
	return 1, d / renewalDuty
}

// Generate implements Source. It builds, for each node, an alternating
// renewal process: availability durations drawn from the published
// quartile distribution, unavailability durations scaled to match the duty
// cycle and modulated by a shared mean-reverting process that reproduces
// the node-count variability of the original traces (diurnal volunteer
// churn, grid job bursts).
func (p Profile) Generate(seed uint64, length float64, pool int) *Trace {
	if length <= 0 {
		length = p.LengthDays * 86400
	}
	full := p.MaxNodes
	if pool <= 0 || pool > full {
		pool = full
	}
	root := sim.NewRNG(seed).Fork("trace:" + p.Name)
	mod := p.modulation(root.Fork("modulation"), length)
	d0 := p.DutyCycle()
	gamma, participation := p.calibration()
	dormMean := dormMeanDays * 86400
	activeMean := dormMean * participation / math.Max(1-participation, 1e-9)
	// Within an active epoch the duty cycle is d0/participation, so the
	// overall duty still averages d0.
	withinDuty := d0
	if participation < 1 {
		withinDuty = math.Min(d0/participation, 0.995)
	}

	// Draw-optimized samplers, built once per trace instead of re-deriving
	// the quartile segment geometry on every one of the millions of interval
	// draws. Values are bit-identical to sampling the distributions directly.
	availSampler := p.Avail.Sampler()
	unavailSampler := p.Unavail.Sampler()

	// Every node draws from its own stream, a pure function of (seed, name,
	// id), and the samplers and the modulation are read-only from here on:
	// nodes are generated concurrently and stored by id, so the trace is
	// bit-identical at any worker count.
	generate := func(id int) *Node {
		r := root.ForkN("node", id)
		node := &Node{ID: id, Power: p.Power.Sample(r.Rand)}
		t := 0.0
		enrolled := participation >= 1 || r.Float64() < participation
		epochEnd := length
		if participation < 1 {
			mean := dormMean
			if enrolled {
				mean = activeMean
			}
			epochEnd = r.ExpFloat64() * mean // memoryless residual
		}
		available := enrolled && r.Float64() < withinDuty
		first := true
		for t < length {
			if participation < 1 && t >= epochEnd {
				enrolled = !enrolled
				mean := dormMean
				if enrolled {
					mean = activeMean
				}
				epochEnd = t + r.ExpFloat64()*mean
				available = enrolled && available
			}
			if !enrolled {
				t = math.Min(epochEnd, length)
				available = false
				first = true
				continue
			}
			if available {
				d := availSampler.Sample(r.Rand)
				if first {
					d *= r.Float64() // stationary residual approximation
				}
				end := math.Min(t+d, length)
				if participation < 1 {
					end = math.Min(end, epochEnd)
				}
				if end > t {
					node.Intervals = append(node.Intervals, Interval{Start: t, End: end})
				}
				t = end
			} else {
				d := unavailSampler.Sample(r.Rand) * gamma * mod.unavailFactor(t, withinDuty)
				if first {
					d *= r.Float64()
				}
				t += d
			}
			available = !available
			first = false
		}
		return node
	}

	tr := &Trace{Name: p.Name, Length: length, Nodes: make([]*Node, pool)}
	chunks := (pool + genChunk - 1) / genChunk
	workers := min(runtime.GOMAXPROCS(0), chunks)
	var next atomic.Int64 // the next unclaimed chunk
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				lo := (int(next.Add(1)) - 1) * genChunk
				if lo >= pool {
					return
				}
				for id, hi := lo, min(lo+genChunk, pool); id < hi; id++ {
					tr.Nodes[id] = generate(id)
				}
			}
		}()
	}
	wg.Wait()
	return tr
}

// genChunk is how many consecutive node ids a Generate worker claims at a
// time: large enough that claiming is free next to generating (a node is
// thousands of interval draws), small enough that the last chunks balance.
const genChunk = 64

// modulation is a piecewise-constant mean-reverting multiplier m(t) shared
// by all nodes of a trace, matching the relative node-count variability
// (StdNodes/MeanNodes) and clamped to the published min/max envelope.
type modulation struct {
	step float64
	m    []float64
}

func (p Profile) modulation(r *sim.RNG, length float64) modulation {
	const step = 600.0
	relStd := 0.0
	if p.MeanNodes > 0 {
		relStd = p.StdNodes / p.MeanNodes
	}
	lo := math.Max(float64(p.MinNodes)/p.MeanNodes, 0.02)
	hi := math.Max(float64(p.MaxNodes)/p.MeanNodes, lo+0.01)
	theta := 1.0 / (6 * 3600) // ~6h relaxation, diurnal-scale variability
	sigma := relStd * math.Sqrt(2*theta)
	n := int(length/step) + 2
	m := make([]float64, n)
	cur := 1.0
	diffusion := sigma * math.Sqrt(step) // loop-invariant noise scale
	for i := range m {
		cur += theta*(1-cur)*step + diffusion*r.NormFloat64()
		if cur < lo {
			cur = lo
		}
		if cur > hi {
			cur = hi
		}
		m[i] = cur
	}
	return modulation{step: step, m: m}
}

// unavailFactor converts the multiplier m(t) on target node count into a
// multiplier on unavailability durations: higher target duty ⇒ shorter
// gaps. With duty d(t) = clamp(d0·m(t)), the gap scale relative to the
// baseline calibration is ((1−d)/d)·(d0/(1−d0)).
func (md modulation) unavailFactor(t, d0 float64) float64 {
	if len(md.m) == 0 {
		return 1
	}
	i := int(t / md.step)
	if i < 0 {
		i = 0
	}
	if i >= len(md.m) {
		i = len(md.m) - 1
	}
	d := d0 * md.m[i]
	d = math.Min(math.Max(d, 0.02), 0.995)
	return ((1 - d) / d) * (d0 / (1 - d0))
}
