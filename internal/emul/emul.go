// Package emul is the emulation mode of SpeQuloS: it runs the deployable
// HTTP service stack (internal/service — the four web-service modules of
// §3.7/Fig 8) inside the discrete-event simulation. A virtual clock is
// injected into every module, a simulated BOINC/XWHEP/Condor batch is
// exposed behind the DGGateway HTTP interface (fed through the 3G-Bridge
// path of internal/bridge), cloud launches become simulated cloud workers,
// and a simulation ticker drives the Scheduler's monitor loop — so an
// emulated run is deterministic, wall-clock-free, and directly comparable
// to the same scenario executed by the in-process simulator.
//
// There is one cell executor, internal/campaign's: an emulated cell is a
// campaign job whose QoS side (campaign.Job.Backend) is HTTPStack instead of
// the in-process core.Service. Everything else of a cell — engine, DG server,
// trace, workloads, cloud, horizon retry, worker pool, store, Result — is the
// campaign's; this package holds only what is the emulation.
//
// RunConformance plans every cell of a (trace × BoT class × middleware ×
// strategy) subset as two jobs, in-process and through the HTTP stack, and
// its per-cell report proves the two results agree on the trigger decision,
// the cloud fleet size, the credits billed, and the completion time. CI runs
// the quick-profile subset on every change, so the deployable service and
// the simulator cannot silently drift apart.
package emul

import (
	"errors"
	"fmt"
	"net/http/httptest"
	"time"

	"spequlos/internal/bridge"
	"spequlos/internal/campaign"
	"spequlos/internal/cloud"
	"spequlos/internal/core"
	"spequlos/internal/middleware"
	"spequlos/internal/service"
	"spequlos/internal/sim"
)

// Job is the emulated job of a scenario: the cell the in-process job
// campaign.Job{Scenario: sc} runs, with the HTTP stack as its QoS side.
func Job(sc campaign.Scenario) campaign.Job {
	return campaign.Job{Scenario: sc, Backend: HTTPStack}
}

// RunCell executes one scenario through the deployable HTTP stack on the
// virtual clock. It is campaign.Execute on the emulated job, so the horizon
// retry is the in-process runner's and the two sides always simulate the
// same window. A job the executor refuses (a baseline, a sharded-kernel
// profile) and a failed round trip both come back as the error.
func RunCell(sc campaign.Scenario) (campaign.Result, error) {
	e := campaign.Execute(Job(sc))
	if e.Err != "" {
		return e.Result, errors.New(e.Err)
	}
	return e.Result, nil
}

// HTTPBackend is the QoS side of one emulated cell: the cell's DG server
// behind the gateway wire format, and the four modules on one loopback
// listener with every clock replaced by the engine's. A simulation ticker
// steps the Scheduler at the monitor period — ONE aggregated progress-batch
// round trip per tick for every registered batch — and each completion steps
// just its own batch, inside the completion callback as core.Service does,
// so billing settles at the completion instant without advancing the other
// batches' monitor state between ticks.
type HTTPBackend struct {
	// Ticks counts Scheduler monitor iterations, whole ticks and
	// per-completion steps alike.
	Ticks int
	// Bridge is the 3G-Bridge every submission arrives through, the grid
	// path of §3.7: the stack recognizes a grid-submitted BoT exactly as a
	// natively-submitted one.
	Bridge *bridge.Bridge

	eng    *sim.Engine
	dgSrv  *httptest.Server
	stack  *service.Stack
	ticker *sim.Ticker
	// registered holds, per batch, the instant of its registration and
	// whether it placed a credit order.
	registered map[string]registration
	err        error
}

type registration struct {
	at      float64
	ordered bool
}

// HTTPStack opens the HTTP-stack backend of a cell: the campaign.Job.Backend
// value of an emulated job (see Job).
func HTTPStack(eng *sim.Engine, primary middleware.Server, simCloud *cloud.SimCloud, cfg core.Config) campaign.Backend {
	// The DG gateway: the simulated server behind the DGGateway HTTP
	// interface, plus the cloud driver that turns Scheduler launches into
	// simulated workers.
	gw := NewSimDG(eng, primary, core.CloudDeployment{Deploy: cfg.Strategy.Deploy, Cloud: simCloud})
	b := &HTTPBackend{
		Bridge: bridge.New(primary), eng: eng, dgSrv: httptest.NewServer(gw.Handler()),
		registered: map[string]registration{},
	}
	gw.SetWorkerURL(b.dgSrv.URL)
	var err error
	if b.stack, err = service.NewStack(service.StackConfig{
		Strategy: cfg.Strategy,
		Registry: cloud.NewRegistry(gw),
		DG:       NewDGClient(b.dgSrv.URL),
	}); err != nil {
		// The cell fails as data, like any other failed round trip.
		b.err = fmt.Errorf("emul: %w", err)
		return b
	}
	// The policy of a tiered cell, if any: the deployable Scheduler
	// arbitrates with the same TierPolicy.Admit call per tick.
	b.stack.Scheduler.TierPolicy = cfg.Tiers
	b.stack.SetClock(func() time.Time { return virtualTime(eng.Now()) })
	b.ticker = eng.NewTicker(cfg.MonitorPeriod, func(sim.Time) { b.step(b.stack.Scheduler.Step) })
	primary.AddListener(completionHook{b})
	return b
}

// do runs one operation of the backend unless an earlier one failed, and
// keeps its failure — the first of the cell — with the operation's name, so a
// crowd debugging session is pointed at the failing registration, not at the
// monitor loop.
func (b *HTTPBackend) do(op string, f func() error) {
	if b.err != nil {
		return
	}
	if err := f(); err != nil {
		b.err = fmt.Errorf("emul: %s: %w", op, err)
	}
}

// step runs one monitor iteration.
func (b *HTTPBackend) step(tick func() error) {
	b.do("monitor step", func() error {
		b.Ticks++
		return tick()
	})
}

// Register is registerQoS + orderQoS of Fig 3, over the wire.
func (b *HTTPBackend) Register(id, envKey string, size int, tier core.Tier, credits float64, _ middleware.Server) {
	b.do("registration of "+id, func() error {
		if credits > 0 {
			if err := b.stack.CreditClient.Deposit("user", credits); err != nil {
				return err
			}
		}
		err := b.stack.SchedulerClient.RegisterQoS(service.QoSRequest{
			User: "user", BatchID: id, EnvKey: envKey, Size: size, Credits: credits,
			Tier: string(tier), Provider: ProviderName, Image: "emul-worker",
		})
		if err == nil {
			b.registered[id] = registration{at: b.eng.Now(), ordered: credits > 0}
		}
		return err
	})
}

// Submit forwards the batch through the bridge to the cell's DG server.
func (b *HTTPBackend) Submit(_ middleware.Server, batch middleware.Batch) {
	b.do("grid submission of "+batch.ID, func() error { return b.Bridge.SubmitGridBatch("emul-grid", batch) })
}

// Usage reads a batch's fleet and trigger from the Scheduler's status and its
// bill from the Credit System's order. CPU seconds stay zero: the stack
// bills credits and does not expose the cloud workers' clocks.
func (b *HTTPBackend) Usage(id string) (core.CloudUsage, error) {
	reg, ok := b.registered[id]
	if !ok {
		return core.CloudUsage{}, fmt.Errorf("emul: batch %q not registered", id)
	}
	st, err := b.stack.Scheduler.Status(id)
	if err != nil {
		return core.CloudUsage{}, err
	}
	u := core.CloudUsage{InstancesStarted: len(st.Instances), Exhausted: st.Exhausted, TriggeredAt: -1}
	if st.TriggeredAt >= 0 {
		// The Scheduler counts from the registration.
		u.TriggeredAt = reg.at + st.TriggeredAt
	}
	if reg.ordered {
		b.do("order of "+id, func() error {
			order, err := b.stack.CreditClient.OrderOf(id)
			u.CreditsBilled, u.CreditsAllocated = order.Billed, order.Allocated
			return err
		})
	}
	return u, b.err
}

// Err is the first failed round trip.
func (b *HTTPBackend) Err() error { return b.err }

// Close stops the ticker and shuts the loopback servers down.
func (b *HTTPBackend) Close() {
	if b.stack != nil {
		b.ticker.Stop()
		b.stack.Close()
	}
	b.dgSrv.Close()
}

// completionHook steps a registered batch the moment it completes.
type completionHook struct{ b *HTTPBackend }

func (h completionHook) TaskAssigned(string, int, float64)  {}
func (h completionHook) TaskCompleted(string, int, float64) {}
func (h completionHook) BatchCompleted(id string, _ float64) {
	if _, ok := h.b.registered[id]; ok {
		h.b.step(func() error { return h.b.stack.Scheduler.StepBatch(id) })
	}
}
