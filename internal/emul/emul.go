// Package emul is the emulation mode of SpeQuloS: it runs the deployable
// HTTP service stack (internal/service — the four web-service modules of
// §3.7/Fig 8) inside the discrete-event simulation. A virtual clock is
// injected into every module, a simulated BOINC/XWHEP/Condor batch is
// exposed behind the DGGateway HTTP interface (fed through the 3G-Bridge
// path of internal/bridge), cloud launches become simulated cloud workers,
// and a simulation ticker drives the Scheduler's monitor loop — so an
// emulated run is deterministic, wall-clock-free, and directly comparable
// to the same scenario executed by the in-process simulator
// (internal/campaign).
//
// On top of single runs, the package provides a conformance campaign
// (RunConformance): every cell of a (trace × BoT class × middleware ×
// strategy) subset executes both in-process and through the HTTP stack, and
// the per-cell report proves the two agree on the trigger decision, the
// cloud fleet size, the credits billed, and the completion time. CI runs
// the quick-profile subset on every change, so the deployable service and
// the simulator cannot silently drift apart.
package emul

import (
	"fmt"
	"net/http/httptest"
	"time"

	"spequlos/internal/bot"
	"spequlos/internal/bridge"
	"spequlos/internal/campaign"
	"spequlos/internal/cloud"
	"spequlos/internal/core"
	"spequlos/internal/middleware"
	"spequlos/internal/service"
	"spequlos/internal/sim"
	"spequlos/internal/xwhep"
)

// Outcome is the result of one emulated execution: the metrics the
// conformance harness compares against the in-process simulator, plus the
// emulation's own accounting.
type Outcome struct {
	BatchID    string `json:"batch_id"`
	Middleware string `json:"middleware"`
	TraceName  string `json:"trace"`
	BotClass   string `json:"bot"`
	Strategy   string `json:"strategy"`

	Completed      bool    `json:"completed"`
	Size           int     `json:"size"`
	CompletionTime float64 `json:"completion_time"`
	// TriggeredAt is when the Scheduler started cloud support (virtual
	// seconds since submission; -1 if never). For multi-batch cells it is
	// the cell's earliest trigger.
	TriggeredAt      float64 `json:"triggered_at"`
	Started          bool    `json:"started"`
	Instances        int     `json:"instances"`
	CreditsAllocated float64 `json:"credits_allocated"`
	CreditsBilled    float64 `json:"credits_billed"`
	Exhausted        bool    `json:"exhausted"`

	// Batches holds per-batch outcomes for multi-batch cells (nil for the
	// classic one-BoT cells), mirroring campaign.BatchResult.
	Batches []BatchOutcome `json:"batches,omitempty"`

	// Events counts simulation events; Ticks counts Scheduler monitor
	// iterations driven by the virtual ticker.
	Events uint64 `json:"events"`
	Ticks  int    `json:"ticks"`
	// BridgeForwarded/BridgeCompleted are the 3G-Bridge accounting of the
	// grid-submitted batch.
	BridgeForwarded int `json:"bridge_forwarded"`
	BridgeCompleted int `json:"bridge_completed"`
}

// BatchOutcome is one sub-batch's emulated outcome within a multi-batch
// cell. Times are relative to the sub-batch's own submission instant, the
// convention campaign.BatchResult uses.
type BatchOutcome struct {
	BatchID        string  `json:"batch_id"`
	SubmittedAt    float64 `json:"submitted_at"`
	Completed      bool    `json:"completed"`
	Size           int     `json:"size"`
	CompletionTime float64 `json:"completion_time"`

	Started          bool    `json:"started"`
	TriggeredAt      float64 `json:"triggered_at"` // -1 if never
	Instances        int     `json:"instances"`
	CreditsAllocated float64 `json:"credits_allocated"`
	CreditsBilled    float64 `json:"credits_billed"`
	Exhausted        bool    `json:"exhausted"`
}

// RunCell executes one scenario through the deployable HTTP stack on the
// virtual clock, retrying with a doubled horizon if the trace window proved
// too short — the same retry policy as the in-process runner, so the two
// sides always simulate the same window.
func RunCell(sc campaign.Scenario) (Outcome, error) {
	if sc.Strategy == nil {
		return Outcome{}, fmt.Errorf("emul: scenario needs a strategy (the stack is the QoS service)")
	}
	horizon := sc.Profile.HorizonDays * 86400
	var o Outcome
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		o, err = runOnce(sc, horizon)
		if err != nil || o.Completed {
			return o, err
		}
		horizon *= 2
	}
	return o, nil
}

// runOnce is one bounded-horizon emulated execution. Cells carrying more
// than one BoT (Profile.Batches) register every sub-batch with the stack:
// the virtual ticker steps the Scheduler — ONE aggregated progress-batch
// round-trip per tick for all of them — and each completion finalizes just
// its own batch at the completion instant, mirroring the in-process
// simulator's event-driven finalization.
func runOnce(sc campaign.Scenario, horizon float64) (Outcome, error) {
	o := Outcome{
		Middleware: sc.Middleware, TraceName: sc.TraceName, BotClass: sc.BotClass,
		Strategy: sc.StrategyLabel(), TriggeredAt: -1,
	}

	// The simulated world: engine, DG server, availability trace, workload
	// and cloud — built exactly as the in-process runner builds them, from
	// the same scenario seed.
	eng := sim.NewEngine()
	primary, err := campaign.NewMiddlewareServer(eng, sc.Middleware)
	if err != nil {
		return o, err
	}
	tr, releaseTrace, err := campaign.CachedTrace(sc, horizon)
	if err != nil {
		return o, err
	}
	defer releaseTrace()
	middleware.BindTrace(eng, tr, primary)
	nb := sc.SubBatches()
	o.BatchID = sc.BotID()
	botIDs := make([]string, nb)
	workloads := make([]*bot.BoT, nb)
	for k := 0; k < nb; k++ {
		botIDs[k] = sc.SubBotID(k)
		w, err := sc.SubWorkload(k)
		if err != nil {
			return o, err
		}
		workloads[k] = w
		o.Size += w.Size()
	}
	simCl := cloud.NewSimCloud(eng, cloud.DefaultSimConfig(), sim.NewRNG(sc.Seed()))

	// The DG gateway: the simulated server behind the DGGateway HTTP
	// interface, plus the cloud driver that turns Scheduler launches into
	// simulated workers.
	gw := NewSimDG(eng, primary, core.CloudDeployment{
		Deploy: sc.Strategy.Deploy, Cloud: simCl,
		CloudServerFactory: func() middleware.Server {
			return xwhep.New(eng, xwhep.DefaultConfig())
		},
	})
	dgSrv := httptest.NewServer(gw.Handler())
	defer dgSrv.Close()
	gw.SetWorkerURL(dgSrv.URL)

	// The deployable stack: all four modules on their own loopback HTTP
	// servers, every clock replaced by the virtual one.
	stack := service.NewTestStack(service.StackConfig{
		Strategy: *sc.Strategy,
		Registry: cloud.NewRegistry(gw),
		DG:       NewDGClient(dgSrv.URL),
	})
	defer stack.Close()
	if sc.Profile.Tiered {
		// The policy the in-process runner gives a tiered cell; the deployable
		// Scheduler arbitrates with the same TierPolicy.Admit call per tick.
		stack.Scheduler.TierPolicy = core.DefaultTierPolicy()
		stack.Scheduler.TierPolicy.FleetCap = sc.Profile.FleetCap
	}
	stack.SetClock(func() time.Time { return virtualTime(eng.Now()) })

	// Per-batch monitor state: a batch is done stepping once the Scheduler
	// reports it finalized.
	finalized := map[string]bool{}
	finalCount := 0
	refresh := func(id string) {
		if finalized[id] {
			return
		}
		if st, err := stack.Scheduler.Status(id); err == nil && st.Finalized {
			finalized[id] = true
			finalCount++
		}
	}

	// The monitor loop: a simulation ticker steps the Scheduler at the
	// paper's one-minute period — one aggregated DG poll shared by every
	// registered batch. A per-batch completion hook steps just the finished
	// batch at its completion instant, so billing settles at the completion
	// time without advancing the other batches' monitor state between ticks.
	var stepErr error
	step := func(ids []string, tick func() error) {
		if stepErr != nil || finalCount == nb {
			return
		}
		o.Ticks++
		if stepErr = tick(); stepErr == nil {
			for _, id := range ids {
				refresh(id)
			}
		}
	}
	ticker := eng.NewTicker(campaign.DefaultMonitorPeriod, func(sim.Time) { step(botIDs, stack.Scheduler.Step) })
	defer ticker.Stop()
	completedAt := make(map[string]float64, nb)
	primary.AddListener(completionHook{watch: botIDs, fn: func(id string, at float64) {
		if _, ok := completedAt[id]; ok {
			return
		}
		completedAt[id] = at
		eng.After(0, func() {
			if !finalized[id] {
				step([]string{id}, func() error { return stack.Scheduler.StepBatch(id) })
			}
		})
	}})

	// registerQoS + orderQoS of Fig 3, over the wire, at each sub-batch's
	// submission instant; submission arrives through the 3G-Bridge, the
	// grid path of §3.7, so the stack recognizes every BoT exactly as a
	// natively-submitted one.
	br := bridge.New(primary)
	subCredits := make([]float64, nb)
	for k := 0; k < nb; k++ {
		k := k
		credits := sc.Profile.CreditFraction * workloads[k].WorkloadCPUHours() * core.CreditsPerCPUHour
		subCredits[k] = credits
		o.CreditsAllocated += credits
		eng.At(sc.SubmitAt(k), func() {
			if stepErr != nil {
				return
			}
			// Submission-path failures carry their own context so a crowd
			// debugging session is pointed at the failing registration, not
			// at the monitor loop.
			if credits > 0 {
				if err := stack.CreditClient.Deposit("user", credits); err != nil {
					stepErr = fmt.Errorf("deposit for %s: %w", botIDs[k], err)
					return
				}
			}
			if err := stack.SchedulerClient.RegisterQoS(service.QoSRequest{
				User: "user", BatchID: botIDs[k], EnvKey: sc.EnvKey(),
				Size: workloads[k].Size(), Credits: credits,
				Tier:     string(sc.SubTier(k)),
				Provider: ProviderName, Image: "emul-worker",
			}); err != nil {
				stepErr = fmt.Errorf("registerQoS for %s: %w", botIDs[k], err)
				return
			}
			if err := br.SubmitGridBatch("emul-grid", middleware.BatchFromBoT(workloads[k])); err != nil {
				stepErr = fmt.Errorf("grid submission of %s: %w", botIDs[k], err)
			}
		})
	}

	eng.RunWhile(func() bool {
		return stepErr == nil && finalCount < nb && eng.Now() <= horizon
	})
	if stepErr != nil {
		return o, fmt.Errorf("emul: %w", stepErr)
	}

	o.Completed = len(completedAt) == nb
	o.Events = eng.Executed()
	if nb > 1 {
		o.Batches = make([]BatchOutcome, nb)
	}
	for k, id := range botIDs {
		bo := BatchOutcome{
			BatchID: id, SubmittedAt: sc.SubmitAt(k), Size: workloads[k].Size(),
			TriggeredAt: -1, CreditsAllocated: subCredits[k],
		}
		if at, ok := completedAt[id]; ok {
			bo.Completed = true
			bo.CompletionTime = at - bo.SubmittedAt
			if at > o.CompletionTime {
				o.CompletionTime = at // the cell's makespan
			}
		}
		if st, err := stack.Scheduler.Status(id); err == nil {
			bo.Started = st.Started
			bo.Exhausted = st.Exhausted
			// The Scheduler records TriggeredAt relative to registration —
			// already the per-batch convention.
			bo.TriggeredAt = st.TriggeredAt
			bo.Instances = len(st.Instances)
			o.Started = o.Started || st.Started
			o.Exhausted = o.Exhausted || st.Exhausted
			o.Instances += len(st.Instances)
			if st.TriggeredAt >= 0 {
				abs := st.TriggeredAt + bo.SubmittedAt
				if o.TriggeredAt < 0 || abs < o.TriggeredAt {
					o.TriggeredAt = abs // earliest trigger in the cell
				}
			}
		}
		if subCredits[k] > 0 {
			order, err := stack.CreditClient.OrderOf(id)
			if err != nil {
				return o, err
			}
			bo.CreditsBilled = order.Billed
			o.CreditsBilled += order.Billed
		}
		if nb > 1 {
			o.Batches[k] = bo
		}
	}
	if !o.Completed {
		o.CompletionTime = -1
	}
	for _, s := range br.StatsBySource() {
		o.BridgeForwarded += s.Forwarded
		o.BridgeCompleted += s.Completed
	}
	return o, nil
}

// completionHook invokes fn when one of the watched batches completes.
type completionHook struct {
	watch []string
	fn    func(id string, at float64)
}

func (h completionHook) TaskAssigned(string, int, float64)  {}
func (h completionHook) TaskCompleted(string, int, float64) {}
func (h completionHook) BatchCompleted(batchID string, at float64) {
	for _, id := range h.watch {
		if batchID == id {
			h.fn(batchID, at)
			return
		}
	}
}
