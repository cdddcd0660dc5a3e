package campaign

import (
	"hash/fnv"
	"runtime"

	"spequlos/internal/cloud"
	"spequlos/internal/core"
	"spequlos/internal/metrics"
	"spequlos/internal/middleware"
	"spequlos/internal/sim"
)

// DefaultMonitorPeriod is the paper's one-minute monitoring loop (§3.2),
// used by plain strategy runs and the emulation harness; variant jobs
// override it via Job.Config.
const DefaultMonitorPeriod = 60.0

// Run executes a plain scenario (no variant configuration), retrying with a
// doubled horizon if the trace window proved too short to finish the BoT.
func Run(sc Scenario) Result {
	return Execute(Job{Scenario: sc}).Result
}

// Execute runs one job to completion, retrying with a doubled horizon if the
// trace window proved too short to finish the BoT.
func Execute(j Job) Entry {
	horizon := j.Scenario.Profile.HorizonDays * 86400
	var e Entry
	for attempt := 0; attempt < 3; attempt++ {
		e = executeOnce(j, horizon)
		if e.Result.Completed || e.Err != "" {
			break
		}
		horizon *= 2
	}
	e.Key = j.Key()
	e.Variant = j.Variant
	e.Profile = j.Scenario.Profile.Name
	return e
}

// kernelShardCount resolves the execution shard count: the profile's
// KernelShards, defaulting to GOMAXPROCS, capped at the batch count (extra
// shards would idle).
func kernelShardCount(p Profile, nb int) int {
	n := p.KernelShards
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > nb {
		n = nb
	}
	if n < 1 {
		n = 1
	}
	return n
}

// batchShard stably maps a sub-batch onto a kernel shard (FNV-32a, the
// scheduler plan-pool idiom). The mapping only balances load: batches are
// independent between barriers, so results do not depend on it.
func batchShard(id string, shards int) int {
	h := fnv.New32a()
	h.Write([]byte(id))
	return int(h.Sum32() % uint32(shards))
}

// completions is the executor's one listener type, attached once per DG
// server: the completion instant of every watched batch (negative while it
// runs), how many are still running, and — for a single-BoT cell only — the
// exact per-task completion times behind the tail metrics. On a sharded
// baseline it also holds the trace binding of its server, to unbind the
// partition the moment nothing watched is left running on it.
//
// A server shared by a thousand batches still carries ONE listener, so the
// work per task event is O(1) whatever the batch count, and the run loop's
// stop condition reads a counter instead of probing Done per batch per
// event (the wall the monitor's polling hit). On a shard-hosted server the
// listener fires on the owning shard's goroutine during parallel windows:
// it is written only by that shard and read only between barriers.
type completions struct {
	at      map[string]float64
	running int
	tasks   []float64
	single  bool
	churn   *middleware.Binding // stopped at the last completion; nil = never
}

// watch starts waiting for a batch of size tasks; a single-BoT cell sizes
// its completion times to it.
func (c *completions) watch(id string, size int) {
	c.at[id] = -1
	c.running++
	if c.single {
		c.tasks = make([]float64, 0, size)
	}
}

func (c *completions) TaskAssigned(string, int, float64) {}
func (c *completions) TaskCompleted(id string, _ int, at float64) {
	if !c.single {
		return
	}
	if _, watched := c.at[id]; watched {
		c.tasks = append(c.tasks, at)
	}
}
func (c *completions) BatchCompleted(id string, at float64) {
	if c.at[id] < 0 { // watched and running: an unwatched batch reads 0
		c.at[id] = at
		c.running--
		if c.running == 0 && c.churn != nil {
			c.churn.Stop()
		}
	}
}

// serviceConfig resolves the SpeQuloS configuration of a job: a variant job
// carries its own config (the knob the ablations turn) and may override the
// credit fraction; a strategy scenario uses the paper's monitoring defaults;
// a baseline runs without SpeQuloS (ok false).
func serviceConfig(j Job) (cfg core.Config, creditFraction float64, ok bool) {
	p := j.Scenario.Profile
	creditFraction = p.CreditFraction
	switch {
	case j.Config != nil:
		cfg = *j.Config
		if j.CreditFraction != nil {
			creditFraction = *j.CreditFraction
		}
	case j.Scenario.Strategy != nil:
		cfg = core.Config{Strategy: *j.Scenario.Strategy, MonitorPeriod: DefaultMonitorPeriod}
	default:
		return cfg, creditFraction, false
	}
	if cfg.MonitorPeriod <= 0 {
		cfg.MonitorPeriod = DefaultMonitorPeriod
	}
	// (g) Tier arbitration is a multi-batch notion — Job.Key keys it only
	// when Batches > 1 — so a single-BoT cell never runs a tier policy.
	if p.Tiered && p.Batches > 1 && cfg.Tiers == nil {
		cfg.Tiers = core.DefaultTierPolicy()
		cfg.Tiers.FleetCap = p.FleetCap
	}
	return cfg, creditFraction, true
}

// Backend is the QoS side of a cell as executeOnce drives it, on the engine
// it was opened on. Two types implement it: inProcess, the core.Service every
// cell ran on before the seam existed, and emul.HTTPBackend, the four web
// services of §3.7 over loopback HTTP (Job.Backend).
type Backend interface {
	// Register starts QoS support for a batch hosted on srv, at its
	// submission instant: registerQoS under its tier, then — when credits > 0
	// — the deposit and the credit order (Fig 3).
	Register(id, envKey string, size int, tier core.Tier, credits float64, srv middleware.Server)
	// Submit is the user's submission path to the batch's DG server.
	Submit(srv middleware.Server, b middleware.Batch)
	// Usage reads a batch's cloud consumption back for the report, times on
	// the engine's clock.
	Usage(id string) (core.CloudUsage, error)
	// Err is the backend's first failure, nil while it is healthy. A failed
	// backend ignores further calls; the executor stops the run.
	Err() error
	// Close releases what the backend holds outside the engine.
	Close()
}

// inProcess is the default backend: direct calls into one core.Service. A
// failure here is a programming error (a batch registered twice, an order
// without a deposit), so it panics and Err stays nil.
type inProcess struct {
	*core.Service
	sharded bool
}

func (q inProcess) Register(id, envKey string, size int, tier core.Tier, credits float64, srv middleware.Server) {
	var err error
	if q.sharded {
		err = q.RegisterQoSShardTier("user", id, envKey, size, tier, srv)
	} else {
		err = q.RegisterQoSTier("user", id, envKey, size, tier)
	}
	if err == nil && credits > 0 {
		q.Credits.Deposit("user", credits)
		err = q.OrderQoS("user", id, credits)
	}
	if err != nil {
		panic(err)
	}
}
func (q inProcess) Submit(srv middleware.Server, b middleware.Batch) { srv.Submit(b) }
func (q inProcess) Err() error                                       { return nil }
func (q inProcess) Close()                                           {}

// executeOnce is one bounded-horizon simulation of a job — the only function
// that builds and runs a cell. All randomness derives from the scenario
// seed, so the same job always yields the same entry regardless of
// execution order or worker count. A cell varies along two independent
// axes, both pure functions of the job key:
//
//   - kernel: one serial engine hosting one DG server over the whole trace,
//     or (Profile.Sharded) a sim.Sharded kernel whose shard engines run in
//     parallel windows while the QoS service — monitor, cloud fleet, credit
//     ledger — lives on the control engine and runs serially at barriers,
//     so results are byte-identical at any KernelShards value;
//   - shape: one BoT, reported as the paper does (tail metrics, TC50Base,
//     optional series, no Batches), or N tenants' BoTs sharing the
//     infrastructure, each with its own credit order, trigger and
//     BatchResult. A sharded cell partitions the model per batch (own
//     server, stable-hashed slice of the trace's nodes), so only a
//     multi-batch cell can be sharded: a single BoT always runs on the
//     serial engine.
//
// Everything else is shared. What still differs between the three
// combinations (serial single, serial multi, sharded multi) is the model
// itself, pinned by the goldens and kept explicit below: (a) where
// registration and submission are scheduled, (b) their order on each
// engine, (c) the barrier window and (d) the CloudDuplication mirror route
// belong to the kernel axis; (e) the TriggeredAt origin and the report
// belong to the shape axis; (f) is the completions listener; (g) is
// serviceConfig; (h) is the Backend seam: which implementation serves the
// QoS side is the job's choice, what the executor asks of it is not.
func executeOnce(j Job, horizon float64) Entry {
	sc := j.Scenario
	seed := sc.Seed()
	nb := sc.SubBatches()
	multi, sharded := nb > 1, sc.Profile.Sharded()
	cfg, creditFraction, useService := serviceConfig(j)
	res := Result{
		Middleware: sc.Middleware, TraceName: sc.TraceName, BotClass: sc.BotClass,
		Offset: sc.Offset, Seed: seed,
	}
	if useService {
		res.Strategy = cfg.Strategy.Label()
	}

	tr, err := CachedTrace(sc, horizon)
	if err != nil {
		panic(err)
	}

	// Kernel and DG servers. hosts[k] is where sub-batch k lives: the engine
	// its submission fires on, its server and that server's listener. (b) The
	// trace is bound here, before any registration or submission is
	// scheduled on the same engine.
	type host struct {
		eng  *sim.Engine
		srv  middleware.Server
		done *completions
	}
	hosts := make([]host, nb)
	var listeners []*completions
	listen := func(eng *sim.Engine, srv middleware.Server) host {
		l := &completions{at: map[string]float64{}, single: !multi}
		srv.AddListener(l)
		listeners = append(listeners, l)
		return host{eng, srv, l}
	}
	var kernel *sim.Sharded // nil on the serial kernel
	var ctl *sim.Engine     // the engine the service lives on
	if !sharded {
		ctl = sim.NewEngine()
		// Nothing of the cell outlives this function but the Entry, which
		// holds no engine: the next cell on this worker reuses the arena.
		defer ctl.Release()
		srv := newServer(ctl, sc.Middleware)
		middleware.BindTrace(ctl, tr, srv)
		h := listen(ctl, srv)
		for k := range hosts {
			hosts[k] = h
		}
	} else {
		kernel = sim.NewSharded(kernelShardCount(sc.Profile, nb))
		ctl = kernel.Control()
		for k := range hosts {
			eng := kernel.Shard(batchShard(sc.SubBotID(k), kernel.Shards()))
			srv := newServer(eng, sc.Middleware)
			// The batch's dedicated slice of the common pool: partition k of
			// nb, a pure function of the node IDs — invariant under the
			// shard count.
			churn := middleware.BindTracePartition(eng, tr, srv, k, nb)
			hosts[k] = listen(eng, srv)
			// A baseline's partition is unbound when its batch completes:
			// nothing reads its churn after that, and the listener fires on
			// this shard's goroutine, where the binding lives. A cell with a
			// service is left bound — sim.Sharded.Run starts each barrier at
			// the merged next-event time, so removing a finished partition's
			// events would shift the barrier phase and move outcomes.
			if !useService {
				hosts[k].done.churn = churn
			}
		}
	}

	// The service, wired once. (h) This is the only place that knows which
	// backend a cell runs on, and where a job no backend can serve is refused.
	var qos Backend // nil on a baseline
	var mirrorBoxes map[string]*sim.Outbox
	if err := j.Refused(); err != nil {
		return Entry{Result: res, Err: err.Error()}
	}
	if useService {
		simCloud := cloud.NewSimCloud(ctl, sim.NewRNG(seed))
		switch {
		case j.Backend != nil:
			qos = j.Backend(ctl, hosts[0].srv, simCloud, cfg)
		case !sharded:
			qos = inProcess{Service: core.NewService(ctl, hosts[0].srv, simCloud, cfg)}
		default:
			// (d) CloudDuplication's primary-side completions fire on shard
			// goroutines, so they ride the barrier exchange: one outbox per
			// batch, created in batch order (the deterministic merge
			// tie-break), written only by the batch's own shard. The topic
			// handler replays a mirrored completion on the control engine at
			// its exact virtual time (svc is captured by reference; it exists
			// before the kernel runs).
			var svc *core.Service
			mirrorBoxes = make(map[string]*sim.Outbox, nb)
			topic := kernel.RegisterTopic(func(m sim.Msg) { svc.DeliverMirror(m.S, int(m.I)) })
			cfg.MirrorPost = func(batchID string, taskID int, at float64) {
				mirrorBoxes[batchID].Post(sim.Msg{Time: at, Topic: topic, I: int32(taskID), S: batchID})
			}
			svc = core.NewShardedService(ctl, simCloud, cfg)
			qos = inProcess{svc, true}
		}
		defer qos.Close()
	}

	// One register/submit pass over the batches. (b) On every engine the
	// registration — which arms the monitor ticker — is scheduled before the
	// submission.
	batches := make([]BatchResult, nb)
	for k := range batches {
		workload, err := sc.SubWorkload(k)
		if err != nil {
			panic(err)
		}
		h, id, at := hosts[k], sc.SubBotID(k), sc.SubmitAt(k)
		var tier core.Tier
		if multi {
			tier = sc.SubTier(k)
		}
		h.done.watch(id, workload.Size())
		batches[k] = BatchResult{
			BatchID: id, SubmittedAt: at, Size: workload.Size(), TriggeredAt: -1,
			Tier: string(tier),
		}
		res.Size += workload.Size()
		br := &batches[k]
		register := func() {
			credits := creditFraction * workload.WorkloadCPUHours() * core.CreditsPerCPUHour
			qos.Register(id, sc.EnvKey(), workload.Size(), tier, credits, h.srv)
			br.CreditsAllocated = max(credits, 0)
		}
		submit := func() {
			if b := middleware.BatchFromBoT(workload); qos != nil {
				qos.Submit(h.srv, b)
			} else {
				h.srv.Submit(b)
			}
		}
		// (a) Result.Events is in the goldens, so each combination keeps its
		// own number of scheduling events.
		switch {
		case !multi: // inline, no event
			if qos != nil {
				register()
			}
			submit()
		case !sharded: // ONE event per batch
			ctl.At(at, func() {
				if qos != nil {
					register()
				}
				submit()
			})
		default:
			// The submission fires on the batch's shard; the service-side
			// registration fires on the control engine at the same instant,
			// i.e. at the barrier closing that window — and only when a
			// service runs.
			h.eng.At(at, submit)
			if qos != nil {
				mirrorBoxes[id] = kernel.NewOutbox()
				ctl.At(at, register)
			}
		}
	}

	// Run until every watched batch completed, the horizon passed or the
	// backend failed.
	running := func() bool {
		for _, l := range listeners {
			if l.running > 0 {
				return true
			}
		}
		return false
	}
	if kernel == nil {
		ctl.RunWhile(func() bool {
			return running() && ctl.Now() <= horizon && (qos == nil || qos.Err() == nil)
		})
		res.Events = ctl.Executed()
	} else {
		// (c) Barrier window: the monitor period when a service runs (its
		// tick is the only cross-shard actor). A baseline has no control
		// events, so one horizon-long window; it ends when the shard heaps
		// drain, which is at the last completion (each partition was unbound
		// at its own), or at the horizon if a batch never finishes.
		window := cfg.MonitorPeriod
		if !useService {
			window = horizon
		}
		kernel.Run(window, func() bool { return ctl.Now() > horizon || !running() })
		res.Events = kernel.Executed()
		st := kernel.Stats()
		res.KernelShards = kernel.Shards()
		res.Barriers = st.Barriers
		res.ShardEvents = st.ShardEvents
		res.BarrierStallSec = st.StallSeconds
	}

	// Collect per batch. (e) Multi-batch cells — and any cell with a service
	// — read "never triggered" as -1; a single-BoT baseline keeps 0.
	if multi || useService {
		res.TriggeredAt = -1
	}
	res.Completed = true
	for k := range batches {
		br := &batches[k]
		if at := hosts[k].done.at[br.BatchID]; at >= 0 {
			br.Completed = true
			br.CompletionTime = at - br.SubmittedAt
			if at > res.CompletionTime {
				res.CompletionTime = at // the cell's makespan
			}
		} else {
			res.Completed = false
		}
		res.CreditsAllocated += br.CreditsAllocated
		if qos == nil {
			continue
		}
		if u, err := qos.Usage(br.BatchID); err == nil {
			br.CreditsBilled = u.CreditsBilled
			br.Instances = u.InstancesStarted
			if u.TriggeredAt >= 0 {
				br.TriggeredAt = u.TriggeredAt - br.SubmittedAt
				if res.TriggeredAt < 0 || u.TriggeredAt < res.TriggeredAt {
					res.TriggeredAt = u.TriggeredAt // earliest trigger in the cell
				}
			}
			res.CreditsBilled += u.CreditsBilled
			res.CloudCPUSeconds += u.CPUSeconds
			res.Instances += u.InstancesStarted
		}
	}
	if !res.Completed {
		res.CompletionTime = 0 // (e) for any incomplete cell
	}

	// Report in the cell's shape.
	entry := Entry{}
	if multi {
		res.Batches = batches
	} else if res.Completed {
		done := listeners[0].tasks
		if tail, ok := metrics.ComputeTail(done); ok {
			res.Tail = tail
		}
		if n := len(done); n >= 2 {
			series := metrics.CompletionSeries(done)
			half := series[(n+1)/2-1].T
			if half > 0 {
				res.TC50Base = half / 0.5
			}
		}
		if j.KeepSeries {
			entry.Series = metrics.CompletionSeries(done)
		}
	}
	entry.Result = res
	if qos != nil && qos.Err() != nil {
		entry.Err = qos.Err().Error()
	}
	return entry
}
