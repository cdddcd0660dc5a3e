// Package campaign is the deterministic campaign engine behind the
// experiment harness: it plans the full set of unique (scenario, strategy)
// simulation jobs up front, deduplicating across consumers, executes each
// job exactly once on a bounded worker pool with context cancellation and
// streaming progress events, and stores results in a keyed, concurrency-safe
// ResultStore with JSON save/load so campaigns can be persisted and resumed.
// The figure/table builders of internal/experiments derive everything from
// the store instead of running their own simulations.
package campaign

import (
	"fmt"
	"runtime"
	"slices"
	"strings"

	"spequlos/internal/boinc"
	"spequlos/internal/bot"
	"spequlos/internal/condor"
	"spequlos/internal/core"
	"spequlos/internal/metrics"
	"spequlos/internal/sim"
	"spequlos/internal/spot"
	"spequlos/internal/trace"
	"spequlos/internal/xwhep"
)

// Middleware names. CONDOR is the extension middleware (checkpoint +
// migration); the paper's evaluation matrix uses BOINC and XWHEP.
const (
	BOINC  = "BOINC"
	XWHEP  = "XWHEP"
	CONDOR = "CONDOR"
)

// Middlewares lists the middleware of the paper's evaluation matrix.
func Middlewares() []string { return []string{BOINC, XWHEP} }

// AllMiddlewares includes the CONDOR extension.
func AllMiddlewares() []string { return []string{BOINC, XWHEP, CONDOR} }

// newServer builds a middleware server by name with its default
// configuration, panicking on an unknown name (the CLIs validate theirs up
// front).
func newServer(eng *sim.Engine, mw string) reusableServer {
	switch mw {
	case BOINC:
		return boinc.New(eng, boinc.DefaultConfig())
	case XWHEP:
		return xwhep.New(eng, xwhep.DefaultConfig())
	case CONDOR:
		return condor.New(eng, condor.DefaultConfig())
	}
	panic(fmt.Sprintf("campaign: unknown middleware %q", mw))
}

// TraceNames lists the six BE-DCI traces of Table 2, in paper order.
func TraceNames() []string {
	return []string{"seti", "nd", "g5klyo", "g5kgre", "spot10", "spot100"}
}

// BotClasses lists the three workload classes of Table 3.
func BotClasses() []string { return []string{"SMALL", "BIG", "RANDOM"} }

// TraceSource resolves a Table 2 trace name to its generator.
func TraceSource(name string) (trace.Source, error) {
	if p, ok := trace.ProfileByName(name); ok {
		return p, nil
	}
	if p, ok := spot.ProfileByName(name); ok {
		return p, nil
	}
	return nil, fmt.Errorf("campaign: unknown trace %q", name)
}

// Profile scales the experiment matrix. The Full profile reproduces the
// paper's dimensions; Quick powers `go test -bench` with minute-scale
// runtimes; Standard is the EXPERIMENTS.md default.
type Profile struct {
	Name string
	// BotScale multiplies BoT sizes (1 = paper sizes).
	BotScale float64
	// Offsets is the number of submission instants simulated per
	// configuration (different seeds ⇒ different trace windows).
	Offsets int
	// PoolCap caps the number of nodes generated per trace (0 = the
	// trace's natural pool). Duty cycles and per-node behaviour are
	// preserved: the cap draws fewer nodes from the same per-node process,
	// so a capped trace is a smaller pool, not a different one.
	PoolCap int
	// HorizonDays bounds one simulation; incomplete runs are retried with
	// a doubled horizon.
	HorizonDays float64
	// CreditFraction of the BoT workload provisioned as cloud credits
	// (the evaluation uses 10%).
	CreditFraction float64
	// Batches is the number of concurrent QoS batches one scenario cell
	// carries (0 or 1 = a single BoT, the paper's shape). The crowd
	// profile sets it to hundreds: one simulated infrastructure serving
	// many QoS users at once, each sub-batch with its own credit order,
	// QoS trigger and per-batch accounting. Omitted from JSON when zero so
	// single-batch profiles keep their stored byte shape.
	Batches int `json:",omitempty"`
	// SubmitSpread staggers multi-batch submissions uniformly over this
	// many seconds (0 = every batch submits at t=0). Interleaved arrivals
	// are what make the crowd cell exercise concurrent monitor state
	// rather than a single synchronized wave.
	SubmitSpread float64 `json:",omitempty"`
	// Tiered assigns each sub-batch a QoS service class (enterprise /
	// premium / free via SubTier) and runs the service with the default
	// tier policy, so cloud supply is arbitrated by weighted admission
	// when contended. Omitted from JSON when false so untiered profiles
	// keep their stored byte shape.
	Tiered bool `json:",omitempty"`
	// FleetCap bounds how many batches may hold cloud support at once when
	// Tiered (0 = unlimited); it is what makes the tier queues contend.
	FleetCap int `json:",omitempty"`
	// ShardedKernel is a multi-batch model flag: it partitions the cell's
	// MODEL for multi-core execution on the sim.Sharded kernel by giving
	// every sub-batch its own DG server plus a stable-hashed dedicated
	// partition of the trace's nodes. Cross-batch couplings — the QoS
	// monitor, tier arbitration under FleetCap — run on the control engine
	// at tick barriers; CloudDuplication's cloud server lives on its
	// batch's shard, beside the primary. Every strategy family runs sharded
	// with no serial fallback. This changes what is simulated, so for a
	// multi-batch cell it IS part of the job key; the kernel shard count is
	// not (byte-identical results at any value). On a single BoT
	// (Batches <= 1) the flag has no effect and no key contribution: the
	// cell is one DG server over the whole trace on the serial engine, the
	// paper's model.
	ShardedKernel bool `json:",omitempty"`
	// KernelShards is the number of parallel event heaps the sharded kernel
	// executes on (0 = GOMAXPROCS, capped at Batches). Purely an execution
	// knob: any value yields byte-identical results, so it is NOT part of
	// the job key.
	KernelShards int `json:",omitempty"`
	// TraceBudgetBytes is the shared trace cache's flush threshold while this
	// profile's campaigns run (0 = the process default,
	// DefaultTraceBudgetBytes): an admission that finds the cached traces
	// above it drops them all. Like KernelShards it is purely an execution
	// knob — a dropped trace regenerates byte-identically, so any value
	// yields byte-identical results — and is NOT part of the job key.
	TraceBudgetBytes int64 `json:",omitempty"`
}

// Sharded reports whether the profile's cells run on the multi-core
// sim.Sharded kernel: ShardedKernel on a multi-batch profile. Every strategy
// family is supported — CloudDuplication's result merge stays on the
// batch's shard and tier arbitration runs on the control engine — so the
// answer is a pure function of the job key, never of the strategy, with no
// silent serial fallback for any coupling. A single BoT is one DG server on one
// serial engine whatever the flag says: the sub-batch is the only partition
// unit.
func (p Profile) Sharded() bool { return p.ShardedKernel && p.Batches > 1 }

// Quick returns the bench profile (small BoTs, small pools).
func Quick() Profile {
	return Profile{
		Name: "quick", BotScale: 0.04, Offsets: 2, PoolCap: 250,
		HorizonDays: 6, CreditFraction: 0.10,
	}
}

// Standard returns the EXPERIMENTS.md profile.
func Standard() Profile {
	return Profile{
		Name: "standard", BotScale: 0.15, Offsets: 3, PoolCap: 600,
		HorizonDays: 10, CreditFraction: 0.10,
	}
}

// Full returns the paper-scale profile: 2 000-node pools over 15-day
// horizons, the dimensions behind the paper's headline figures. The matrix
// needs 180 distinct traces, megabytes each if generated whole; cells draw
// them on demand, so the whole matrix leaves 36 MiB of them in the trace
// cache, far under its 512 MiB flush threshold. Like
// every single-BoT profile, each cell is the paper's model — one DG server
// scheduling over the whole trace on the serial engine — and the campaign
// spreads across cores cell by cell.
func Full() Profile {
	return Profile{
		Name: "full", BotScale: 1, Offsets: 5, PoolCap: 2000,
		HorizonDays: 15, CreditFraction: 0.10,
		TraceBudgetBytes: DefaultTraceBudgetBytes,
	}
}

// Stress returns the kernel stress profile: 10× the quick profile's worker
// churn (pool cap 2500) over a 30-day horizon. It exists to exercise the
// event kernel at BOINC-like host volumes (Anderson's hundreds of thousands
// of hosts, scaled to one process) rather than to reproduce a paper
// artifact; the churn workload of bench/ is six of its cells.
// Since PR 7 the cell is a sharded-kernel model: 32 quick-sized BoTs, each
// on its own server with a dedicated ~78-node slice of the pool, so the
// simulation spreads across every core while staying byte-deterministic at
// any shard count (Profile.KernelShards). A baseline cell unbinds each
// slice when its BoT completes, so the 30 days bound the run without being
// replayed.
func Stress() Profile {
	return Profile{
		Name: "stress", BotScale: 0.04, Offsets: 1, PoolCap: 2500,
		HorizonDays: 30, CreditFraction: 0.10,
		Batches: 32, SubmitSpread: 3600, ShardedKernel: true,
	}
}

// Crowd returns the multi-tenant stress profile: one 500-node trace
// serving 200 concurrent QoS batches — the "shared service" shape the
// paper's framing implies but never evaluates. Each cell interleaves 200
// quick-sized sub-batches (submissions staggered over four hours), each
// with its own credit order and QoS trigger; the Scheduler monitors all of
// them through ONE aggregated DG poll per tick. spequlos-bench writes the
// fairness and poll-economy numbers to crowd.txt.
func Crowd() Profile {
	return Profile{
		Name: "crowd", BotScale: 0.01, Offsets: 1, PoolCap: 500,
		HorizonDays: 6, CreditFraction: 0.10,
		Batches: 200, SubmitSpread: 4 * 3600,
	}
}

// Crowd2K returns the tiered multi-tenant scale profile: 2 000 concurrent
// QoS batches on one 500-node trace, submissions staggered over a day,
// split across the enterprise/premium/free service classes (SubTier) with
// a 120-batch cloud fleet cap — the contended-supply shape the tier model
// arbitrates. It runs on the sharded kernel: tier arbitration executes on
// the control engine at tick barriers, byte-identical at any shard count.
// It was built to show the sharded monitor holding at 10× the crowd
// profile, and it does not: a sharded cell gives each batch its own DG
// server on 1/2000 of the pool, and spequlos-bench -profile crowd2k
// completes 124 (BOINC), 365 (XWHEP) and 365 (CONDOR) of the 2000 batches,
// Jain index 0.000 (ROADMAP.md, "One simulation kernel", retires the
// sharded kernel). bench/'s tenants workload runs a serial 1000-batch form
// of it.
func Crowd2K() Profile {
	return Profile{
		Name: "crowd2k", BotScale: 0.01, Offsets: 1, PoolCap: 500,
		HorizonDays: 8, CreditFraction: 0.10,
		Batches: 2000, SubmitSpread: 24 * 3600,
		Tiered: true, FleetCap: 120, ShardedKernel: true,
	}
}

// ProfileByName resolves quick/standard/full/stress/crowd/crowd2k.
func ProfileByName(name string) (Profile, error) {
	switch name {
	case "quick":
		return Quick(), nil
	case "standard":
		return Standard(), nil
	case "full":
		return Full(), nil
	case "stress":
		return Stress(), nil
	case "crowd":
		return Crowd(), nil
	case "crowd2k":
		return Crowd2K(), nil
	}
	return Profile{}, fmt.Errorf("campaign: unknown profile %q", name)
}

// Workers is the number of simulations a campaign runs at once: GOMAXPROCS.
func (p Profile) Workers() int { return runtime.GOMAXPROCS(0) }

// Scenario is one simulation to run.
type Scenario struct {
	Profile    Profile
	Middleware string
	TraceName  string
	BotClass   string
	Offset     int
	// Strategy enables SpeQuloS with the given combination; nil runs the
	// baseline.
	Strategy *core.Strategy
}

// EnvKey identifies the execution environment (middleware, BE-DCI, BoT
// class) — the α-calibration granularity of §3.4.
func (sc Scenario) EnvKey() string {
	return sc.Middleware + "/" + sc.TraceName + "/" + sc.BotClass
}

// Seed derives the deterministic seed shared by the baseline and every
// SpeQuloS variant of the same scenario (paired comparison).
func (sc Scenario) Seed() uint64 {
	return sim.SeedFrom(sc.Profile.Name, sc.Middleware, sc.TraceName, sc.BotClass,
		fmt.Sprintf("offset-%d", sc.Offset))
}

// StrategyLabel returns the strategy label of the scenario, "" for a
// baseline.
func (sc Scenario) StrategyLabel() string {
	if sc.Strategy == nil {
		return ""
	}
	return sc.Strategy.Label()
}

// Validate names the first coordinate of the scenario that is not a known
// middleware, trace or BoT class, with the known ones. The CLIs check every
// scenario they plan with it, so a typo is a one-line error rather than a
// panic inside Campaign.Run.
func (sc Scenario) Validate() error {
	unknown := func(kind, name string, known []string) error {
		return fmt.Errorf("campaign: unknown %s %q (known: %s)", kind, name, strings.Join(known, " "))
	}
	if !slices.Contains(AllMiddlewares(), sc.Middleware) {
		return unknown("middleware", sc.Middleware, AllMiddlewares())
	}
	if _, err := TraceSource(sc.TraceName); err != nil {
		return unknown("trace", sc.TraceName, TraceNames())
	}
	if !slices.Contains(BotClasses(), sc.BotClass) {
		return unknown("bot class", sc.BotClass, BotClasses())
	}
	return nil
}

// BotID is the batch identifier shared by the simulator, the emulation
// harness and the DG server for this scenario's BoT.
func (sc Scenario) BotID() string {
	return fmt.Sprintf("%s-%s-%s-%d", sc.Middleware, sc.TraceName, sc.BotClass, sc.Offset)
}

// Workload generates the scenario's BoT deterministically: the class scaled
// by the profile's BotScale, seeded from the scenario coordinates.
func (sc Scenario) Workload() (*bot.BoT, error) {
	return sc.SubWorkload(0)
}

// SubBatches returns the number of concurrent BoTs the cell carries (≥1).
func (sc Scenario) SubBatches() int {
	if sc.Profile.Batches > 1 {
		return sc.Profile.Batches
	}
	return 1
}

// SubBotID returns the batch identifier of sub-batch k. A single-batch
// cell keeps the plain BotID, so multi-batch support does not disturb
// existing keys, stores or goldens.
func (sc Scenario) SubBotID(k int) string {
	if sc.SubBatches() == 1 {
		return sc.BotID()
	}
	return fmt.Sprintf("%s.b%03d", sc.BotID(), k)
}

// SubSeed derives the workload seed of sub-batch k: sub-batch 0 keeps the
// scenario seed (single-batch compatibility); later batches fork it so the
// crowd's BoTs differ while staying deterministic.
func (sc Scenario) SubSeed(k int) uint64 {
	if k == 0 {
		return sc.Seed()
	}
	return sim.SeedFrom(sc.Profile.Name, sc.Middleware, sc.TraceName, sc.BotClass,
		fmt.Sprintf("offset-%d", sc.Offset), fmt.Sprintf("sub-%d", k))
}

// SubmitAt returns the virtual submission instant of sub-batch k:
// submissions interleave uniformly over the profile's SubmitSpread.
func (sc Scenario) SubmitAt(k int) float64 {
	n := sc.SubBatches()
	if n <= 1 || sc.Profile.SubmitSpread <= 0 {
		return 0
	}
	return sc.Profile.SubmitSpread * float64(k) / float64(n)
}

// SubTier returns the QoS service class of sub-batch k in a tiered cell:
// a deterministic 20/30/50 enterprise/premium/free split by batch index.
// Untiered cells return the empty tier (legacy single-tenant behavior).
func (sc Scenario) SubTier(k int) core.Tier {
	if !sc.Profile.Tiered {
		return ""
	}
	switch k % 10 {
	case 0, 1:
		return core.TierEnterprise
	case 2, 3, 4:
		return core.TierPremium
	default:
		return core.TierFree
	}
}

// SubWorkload generates sub-batch k's BoT deterministically.
func (sc Scenario) SubWorkload(k int) (*bot.BoT, error) {
	class, ok := bot.ClassByName(sc.BotClass)
	if !ok {
		return nil, fmt.Errorf("campaign: unknown bot class %q", sc.BotClass)
	}
	if sc.Profile.BotScale > 0 && sc.Profile.BotScale != 1 {
		class = class.Scaled(sc.Profile.BotScale)
	}
	return class.Generate(sc.SubBotID(k), sc.SubSeed(k)), nil
}

// GenerateTrace returns the scenario's availability trace for the given
// horizon (seconds), capped at the profile's pool size. A renewal-process
// trace comes back open on demand (trace.Profile.Open): a cell stops at its
// last completion, hours into a horizon of days, and pays for a node's
// availability only as far as it reads it. A spot trace comes back whole.
func (sc Scenario) GenerateTrace(horizon float64) (*trace.Trace, error) {
	if p, ok := trace.ProfileByName(sc.TraceName); ok {
		return p.Open(sc.Seed(), horizon, sc.Profile.PoolCap), nil
	}
	src, err := TraceSource(sc.TraceName)
	if err != nil {
		return nil, err
	}
	return src.Generate(sc.Seed(), horizon, sc.Profile.PoolCap), nil
}

// Result captures one run's outcome and metrics.
type Result struct {
	Middleware string
	TraceName  string
	BotClass   string
	Offset     int
	Strategy   string // "" for baseline
	Seed       uint64

	Completed      bool
	Size           int
	CompletionTime float64
	Tail           metrics.TailStats
	// TC50Base is tc(0.5)/0.5, the constant-rate estimate at half
	// completion used by the Oracle's prediction (Table 4).
	TC50Base float64

	// Cloud usage (zero for baselines).
	CreditsAllocated float64
	CreditsBilled    float64
	CloudCPUSeconds  float64
	Instances        int
	TriggeredAt      float64

	Events uint64 // simulation events executed (for benchmarking)

	// Sharded-kernel execution counters (set only by sharded-kernel cells).
	// They describe HOW the run executed, not what it computed: every other
	// field is byte-identical at any KernelShards value, and determinism
	// checks zero these before comparing.
	KernelShards    int      `json:",omitempty"`
	Barriers        uint64   `json:",omitempty"`
	ShardEvents     []uint64 `json:",omitempty"`
	BarrierStallSec float64  `json:",omitempty"`

	// Batches holds per-batch outcomes for multi-batch cells (nil for the
	// classic one-BoT cells, and omitted from their JSON so existing stores
	// and goldens keep their byte shape). Aggregate fields then read:
	// Completed = every batch completed, CompletionTime = the cell's
	// makespan, Size = total tasks, credits/instances = sums; tail metrics
	// are per-batch concepts and stay zero.
	Batches []BatchResult `json:",omitempty"`
}

// BatchResult is one sub-batch's outcome within a multi-batch cell. Times
// are relative to the sub-batch's own submission instant, which is what
// per-user QoS fairness is measured on.
type BatchResult struct {
	BatchID        string
	SubmittedAt    float64 // virtual submission instant within the cell
	Completed      bool
	Size           int
	CompletionTime float64 // seconds from this batch's submission

	CreditsAllocated float64
	CreditsBilled    float64
	Instances        int
	TriggeredAt      float64 // seconds from submission; -1 if never
	// CloudTasks counts the batch's tasks whose accepted result a cloud
	// worker computed, on the batch's DG server or, under Cloud Duplication,
	// on its cloud server (0 for a baseline; omitted from JSON when zero).
	CloudTasks int `json:",omitempty"`
	// Tier is the batch's QoS service class in a tiered cell ("" when the
	// cell ran untiered; omitted from JSON so untiered stores keep their
	// byte shape).
	Tier string `json:",omitempty"`
}

// EnvKey mirrors Scenario.EnvKey.
func (r Result) EnvKey() string { return r.Middleware + "/" + r.TraceName + "/" + r.BotClass }
