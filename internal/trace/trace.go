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
// modulation; spot-market traces come from internal/spot. No trace file is
// read: the Failure Trace Archive and spot-price originals are not in the
// repository, and a reader for them returns together with committed files.
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
// Its periods are read only through an atomically published prefix. A whole
// node (NewNode, Profile.Generate, the spot market) is born with the prefix
// marked done. A node of an open trace (Profile.Open) starts with nothing
// drawn and extends the prefix under its generator's mutex as far as it is
// read. Simulations read either kind through At, whole-node readers through
// the trace's methods. A zero Node has no periods.
type Node struct {
	ID    int
	Power float64

	pub atomic.Pointer[prefix] // nil only on a zero Node
	gen *nodeGen               // nil on a whole node; never reassigned once shared
}

// NewNode returns a whole node with the given periods, which it keeps: the
// caller must not write them afterwards.
func NewNode(id int, power float64, ivs []Interval) *Node {
	n := &Node{ID: id, Power: power}
	n.pub.Store(&prefix{ivs: ivs, done: true})
	return n
}

// noPeriods is what a zero Node publishes.
var noPeriods = prefix{done: true}

// published returns the node's prefix.
func (n *Node) published() *prefix {
	if p := n.pub.Load(); p != nil {
		return p
	}
	return &noPeriods
}

// At returns the node's i-th availability period, or false when it has no
// more than i. On an open node it draws as far as i needs; any number of
// goroutines may read the same node at once and all see the same sequence.
func (n *Node) At(i int) (Interval, bool) {
	p := n.published()
	if i >= len(p.ivs) && !p.done {
		p = n.extend(i + 1)
	}
	if i < len(p.ivs) {
		return p.ivs[i], true
	}
	return Interval{}, false
}

// Drawn returns how many of the node's periods are resident now, without
// drawing any: all of them for a whole node.
func (n *Node) Drawn() int { return len(n.published().ivs) }

// all returns every period of the node, drawing an open node to the end of
// its trace first, so a whole-node reader never sees a partial sequence.
func (n *Node) all() []Interval {
	p := n.published()
	if !p.done {
		p = n.extend(math.MaxInt)
	}
	return p.ivs
}

// Trace is a BE-DCI availability trace: complete when its nodes are whole,
// drawn node by node as far as it is read when opened (Profile.Open).
// Validate, MeasureStats and WriteCSV read whole nodes and so draw an open
// trace to its end; Bytes never draws.
type Trace struct {
	Name   string
	Length float64 // seconds
	Nodes  []*Node
}

// Validate checks structural invariants: a finite length; intervals
// finite, sorted, non-overlapping, positive, within [0, Length]; powers
// positive and finite.
func (t *Trace) Validate() error {
	if !finite(t.Length) {
		return fmt.Errorf("trace %s: non-finite length %g", t.Name, t.Length)
	}
	for _, n := range t.Nodes {
		if !(n.Power > 0) || !finite(n.Power) {
			return fmt.Errorf("trace %s: node %d has power %g, want positive and finite", t.Name, n.ID, n.Power)
		}
		prev := -math.MaxFloat64
		for _, iv := range n.all() {
			if !finite(iv.Start) || !finite(iv.End) {
				return fmt.Errorf("trace %s: node %d has non-finite interval %+v", t.Name, n.ID, iv)
			}
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

// finite reports whether x is neither NaN nor infinite.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Bytes estimates the resident heap size of the trace in bytes: the
// dominant term is 16 bytes per interval (two float64s), plus fixed
// per-node and per-trace overheads for the structs and pointers that hold
// them. It counts the intervals resident now and never draws: on an open
// trace it grows as cells read deeper. The estimate is a pure function of
// the trace's shape and of how far it was read, so byte-budgeted admission
// decisions (the campaign trace cache) do not depend on the platform.
func (t *Trace) Bytes() int64 {
	const (
		intervalBytes = 16 // Interval{Start, End float64}
		nodeBytes     = 72 // Node struct (32) + *Node in Trace.Nodes (8) + its published prefix (32)
		genBytes      = 96 // nodeGen (48) + its RNG, rand.Rand and PCG (16 each)
		traceBytes    = 64 // Trace struct + Nodes slice header
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

// MeasureStats computes trace statistics. Concurrency is sampled on a grid
// of instants step, 2·step, … strictly inside (0, Length), each the running
// sum at += step (a non-positive step defaults to 600 s); the count at an
// instant is the intervals started at or before it minus those ended at or
// before it. Every interval start and end is counted once, into the first
// grid instant at or after it, and a prefix sum over the grid gives every
// count, in time linear in the number of intervals. Unavailability gaps are
// measured between consecutive intervals of the same node (edge gaps at the
// trace boundaries are excluded, as their true length is censored).
// No interval endpoint may be NaN.
func (t *Trace) MeasureStats(step float64) Stats {
	if step <= 0 {
		step = 600
	}
	// Sample strictly inside the window: at the exact trace end every
	// interval closes, which would register a spurious zero.
	grid := make([]float64, 0, max(0, int(t.Length/step)))
	for at := step; at < t.Length; at += step {
		grid = append(grid, at)
	}
	// delta[k] is the starts minus the ends counted into grid instant k.
	delta := make([]int, len(grid))
	total := 0
	for _, n := range t.Nodes {
		total += len(n.all())
	}
	avail := make([]float64, 0, total)
	unavail := make([]float64, 0, total)
	power := make([]float64, 0, len(t.Nodes))
	for _, n := range t.Nodes {
		power = append(power, n.Power)
		ivs := n.all()
		for i, iv := range ivs {
			avail = append(avail, iv.Duration())
			if i > 0 {
				unavail = append(unavail, iv.Start-ivs[i-1].End)
			}
			if k := firstAtOrAfter(grid, step, iv.Start); k < len(grid) {
				delta[k]++
			}
			if k := firstAtOrAfter(grid, step, iv.End); k < len(grid) {
				delta[k]--
			}
		}
	}
	conc := grid // every endpoint is counted: the instants are no longer read
	count := 0
	for k, d := range delta {
		count += d
		conc[k] = float64(count)
	}
	return Stats{
		Name:        t.Name,
		LengthDays:  t.Length / 86400,
		Concurrency: stats.SummarizeInPlace(conc),
		Avail:       stats.SummarizeInPlace(avail),
		Unavail:     stats.SummarizeInPlace(unavail),
		Power:       stats.SummarizeInPlace(power),
	}
}

// firstAtOrAfter returns the index of the first grid instant at or after x,
// or len(grid) when x is past the last one. grid is ascending with
// grid[k] ≈ (k+1)·step; the guess from that is corrected against the
// instants themselves, so the drift of their repeated addition cannot
// misplace x.
func firstAtOrAfter(grid []float64, step, x float64) int {
	k := len(grid)
	if q := math.Ceil(x/step) - 1; !(q > 0) {
		k = 0
	} else if q < float64(len(grid)) {
		k = int(q)
	}
	for k > 0 && grid[k-1] >= x {
		k--
	}
	for k < len(grid) && grid[k] < x {
		k++
	}
	return k
}

// Source produces whole traces, every node born with all of its periods:
// renewal Profiles implement it here (Profile.Open is their on-demand
// form), and the spot market in internal/spot.
type Source interface {
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
// readers index the node's atomically published prefix without writing
// shared memory, and only drawing further takes the mutex. A longer prefix
// reuses the array of the shorter ones: the elements a reader can index are
// never written again.
type nodeGen struct {
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
		node.pub.Store(&nothingDrawn)
		tr.Nodes[id] = node
	}
	return tr
}

// extend draws until the open node has want periods or its process reaches
// the trace length, and publishes and returns the longer prefix. It draws at
// least as many periods again as the node already has, so reading a node
// ever deeper takes the mutex a logarithmic number of times.
func (n *Node) extend(want int) *prefix {
	g := n.gen
	g.mu.Lock()
	defer g.mu.Unlock()
	p := n.pub.Load()
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
	n.pub.Store(p)
	return p
}

// Generate implements Source. It builds, for each node, an alternating
// renewal process: availability durations drawn from the published
// quartile distribution, unavailability durations scaled to match the duty
// cycle and modulated by a shared mean-reverting process that reproduces
// the node-count variability of the original traces (diurnal volunteer
// churn, grid job bursts). It is Open drawn to the end: nodes are drawn
// concurrently, each from its own stream, so the trace is bit-identical at
// any worker count, and every node is returned whole, its generator dropped.
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
					n.all()
					n.gen = nil
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
