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
//
// A renewal trace can be opened without being drawn (Profile.Open): each node
// then draws its periods as far as a simulation reads them through Node.At.
// A run stops at its last completion, typically hours into a horizon of
// days, so it never pays for the rest. Profile.Generate is the same generator
// drawn to the end.
package trace

import (
	"fmt"
	"math"
	"runtime"
	"slices"
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
//
// Intervals holds the periods of a materialised node (spot, CSV, FTA,
// Profile.Generate). A node of an on-demand trace (Profile.Open) draws its
// periods as they are read and leaves Intervals nil: simulations read either
// kind through At, whole-node readers through the trace's methods.
type Node struct {
	ID        int
	Power     float64
	Intervals []Interval

	gen *nodeGen // nil for a materialised node; never reassigned once shared
}

// At returns the node's i-th availability period, or false when it has no
// more than i. On an on-demand node it draws as far as i needs; any number
// of goroutines may read the same node at once and all see the same
// sequence.
func (n *Node) At(i int) (Interval, bool) {
	ivs := n.Intervals
	if g := n.gen; g != nil {
		p := g.pub.Load()
		if i >= len(p.ivs) && !p.done {
			p = g.extend(i + 1)
		}
		ivs = p.ivs
	}
	if i < len(ivs) {
		return ivs[i], true
	}
	return Interval{}, false
}

// Drawn returns how many of the node's periods are resident now, without
// drawing any: all of them for a materialised node.
func (n *Node) Drawn() int {
	if n.gen != nil {
		return len(n.gen.pub.Load().ivs)
	}
	return len(n.Intervals)
}

// all returns every period of the node, drawing an on-demand node to the end
// of its trace first, so a whole-node reader never sees a partial sequence.
func (n *Node) all() []Interval {
	if n.gen != nil {
		return n.gen.extend(math.MaxInt).ivs
	}
	return n.Intervals
}

// Trace is a BE-DCI availability trace: complete when materialised, drawn
// node by node as far as it is read when opened on demand (Profile.Open).
// Validate, MeasureStats and WriteCSV read whole nodes and so
// draw an on-demand trace to its end; Bytes never draws.
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
		for _, iv := range n.all() {
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
// pointers that hold them. It counts the intervals resident now and never
// draws: on an on-demand trace it grows as cells read deeper. The estimate is
// a pure function of the trace's shape and of how far it was read, so
// byte-budgeted admission decisions (the campaign trace cache) do not depend
// on the platform.
func (t *Trace) Bytes() int64 {
	const (
		intervalBytes = 16  // Interval{Start, End float64}
		nodeBytes     = 48  // Node struct + slice header + *Node in Trace.Nodes
		genBytes      = 160 // nodeGen + its RNG + one published prefix header
		traceBytes    = 64  // Trace struct + Nodes slice header
	)
	n := int64(traceBytes) + int64(len(t.Name))
	for _, node := range t.Nodes {
		n += nodeBytes + intervalBytes*int64(node.Drawn())
		if node.gen != nil {
			n += genBytes
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
// Exactly one of the two mechanisms is active per profile: shrunk gaps when
// the renewal process alone is less available than the trace, dormancy when
// it is more.
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

// renewal is what the nodes of one on-demand trace share, read-only once the
// trace is open: the calibrated process parameters, the draw-optimized
// samplers (built once per trace instead of re-deriving the quartile segment
// geometry on every draw; values are bit-identical to sampling the
// distributions directly) and the duty modulation.
type renewal struct {
	length        float64
	participation float64
	dormMean      float64
	activeMean    float64
	withinDuty    float64
	gamma         float64
	avail         stats.QuartileSampler
	unavail       stats.QuartileSampler
	mod           modulation
}

// prefix is an immutable snapshot of the periods a node has drawn so far;
// done means the process reached the trace length, so ivs is all of them.
type prefix struct {
	ivs  []Interval
	done bool
}

// nothingDrawn is the prefix every node of an open trace starts from.
var nothingDrawn prefix

// nodeGen is one node's alternating renewal process, resumable: it draws
// only as far as the node is read. A trace is shared by every cell of its
// environment running at once (and by the shard goroutines of one cell), so
// readers index the atomically published prefix without writing shared
// memory, and only drawing further takes the mutex. A longer prefix reuses
// the array of the shorter ones: the elements a reader can index are never
// written again.
type nodeGen struct {
	pub atomic.Pointer[prefix]

	*renewal // shared, read-only

	mu        sync.Mutex // guards the process state below
	r         *sim.RNG
	t         float64
	epochEnd  float64
	enrolled  bool
	available bool
	first     bool
}

// Open starts a trace of the profile without drawing it: every node gets its
// own stream — a pure function of (seed, name, id) — its power and its
// enrolment, and its availability periods are drawn when At first reads them.
// Every node's draw sequence is the one Generate makes, so reading an open
// trace in any order, to any depth, from any number of goroutines yields
// Generate's intervals bit for bit.
func (p Profile) Open(seed uint64, length float64, pool int) *Trace {
	if length <= 0 {
		length = p.LengthDays * 86400
	}
	full := p.MaxNodes
	if pool <= 0 || pool > full {
		pool = full
	}
	root := sim.NewRNG(seed).Fork("trace:" + p.Name)
	d0 := p.DutyCycle()
	gamma, participation := p.calibration()
	dormMean := dormMeanDays * 86400
	rn := &renewal{
		length:        length,
		participation: participation,
		dormMean:      dormMean,
		activeMean:    dormMean * participation / math.Max(1-participation, 1e-9),
		// Within an active epoch the duty cycle is d0/participation, so the
		// overall duty still averages d0.
		withinDuty: d0,
		gamma:      gamma,
		avail:      p.Avail.Sampler(),
		unavail:    p.Unavail.Sampler(),
		mod:        p.modulation(root.Fork("modulation"), length),
	}
	if participation < 1 {
		rn.withinDuty = math.Min(d0/participation, 0.995)
	}

	tr := &Trace{Name: p.Name, Length: length, Nodes: make([]*Node, pool)}
	for id := range tr.Nodes {
		r := root.ForkN("node", id)
		g := &nodeGen{renewal: rn, r: r, first: true}
		node := &Node{ID: id, Power: p.Power.Sample(r.Rand), gen: g}
		g.enrolled = participation >= 1 || r.Float64() < participation
		g.epochEnd = length
		if participation < 1 {
			mean := rn.dormMean
			if g.enrolled {
				mean = rn.activeMean
			}
			g.epochEnd = r.ExpFloat64() * mean // memoryless residual
		}
		g.available = g.enrolled && r.Float64() < rn.withinDuty
		g.pub.Store(&nothingDrawn)
		tr.Nodes[id] = node
	}
	return tr
}

// extend draws until the node has want periods or its process reaches the
// trace length, and returns the published prefix. It draws at least as many
// periods again as the node already has, so reading a node ever deeper takes
// the mutex a logarithmic number of times.
func (g *nodeGen) extend(want int) *prefix {
	g.mu.Lock()
	defer g.mu.Unlock()
	p := g.pub.Load()
	if len(p.ivs) >= want || p.done {
		return p
	}
	want = max(want, 2*len(p.ivs))
	ivs, r := p.ivs, g.r
	for g.t < g.length && len(ivs) < want {
		if g.participation < 1 && g.t >= g.epochEnd {
			g.enrolled = !g.enrolled
			mean := g.dormMean
			if g.enrolled {
				mean = g.activeMean
			}
			g.epochEnd = g.t + r.ExpFloat64()*mean
			g.available = g.enrolled && g.available
		}
		if !g.enrolled {
			g.t = math.Min(g.epochEnd, g.length)
			g.available = false
			g.first = true
			continue
		}
		if g.available {
			d := g.avail.Sample(r.Rand)
			if g.first {
				d *= r.Float64() // stationary residual approximation
			}
			end := math.Min(g.t+d, g.length)
			if g.participation < 1 {
				end = math.Min(end, g.epochEnd)
			}
			if end > g.t {
				ivs = append(ivs, Interval{Start: g.t, End: end})
			}
			g.t = end
		} else {
			d := g.unavail.Sample(r.Rand) * g.gamma * g.mod.unavailFactor(g.t, g.withinDuty)
			if g.first {
				d *= r.Float64()
			}
			g.t += d
		}
		g.available = !g.available
		g.first = false
	}
	p = &prefix{ivs: ivs, done: g.t >= g.length}
	g.pub.Store(p)
	return p
}

// Generate implements Source. It builds, for each node, an alternating
// renewal process: availability durations drawn from the published
// quartile distribution, unavailability durations scaled to match the duty
// cycle and modulated by a shared mean-reverting process that reproduces
// the node-count variability of the original traces (diurnal volunteer
// churn, grid job bursts). It is Open drawn to the end: nodes are drawn
// concurrently, each from its own stream, so the trace is bit-identical at
// any worker count, and it is returned materialised, the generators dropped.
func (p Profile) Generate(seed uint64, length float64, pool int) *Trace {
	tr := p.Open(seed, length, pool)
	pool = len(tr.Nodes)
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
				for _, n := range tr.Nodes[lo:min(lo+genChunk, pool)] {
					n.Intervals, n.gen = n.all(), nil
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
