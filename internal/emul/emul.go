// Package emul is the emulation mode of SpeQuloS: it runs the deployable
// HTTP service stack (internal/service — the four web-service modules of
// §3.7/Fig 8) inside the discrete-event simulation. A virtual clock is
// injected into every module, a simulated BOINC/XWHEP/Condor batch is
// exposed behind the DGGateway HTTP interface, cloud launches become
// simulated cloud workers, and the Scheduler's monitor loop is stepped by
// core.Driver, the schedule the in-process simulator steps its own by — so an
// emulated run is deterministic, wall-clock-free, and directly comparable to
// the same scenario executed by the in-process simulator.
//
// There is one cell executor, internal/campaign's: an emulated cell is a
// campaign job whose QoS side (campaign.Job.Backend) is HTTPStack instead of
// the in-process core.Service. Everything else of a cell — engine, DG server,
// the submission of its batches, trace, workloads, cloud, horizon retry,
// worker pool, store, Result — is the campaign's; this package holds only
// what is the emulation.
//
// RunConformance plans every cell of a (trace × BoT class × middleware ×
// strategy) subset as two jobs, in-process and through the HTTP stack, and
// its per-cell report requires the two results to be equal, field by field
// and batch by batch, every field by ==: both sides step one core.Monitor at
// the engine's own instants, so nothing but their ports differs. CI runs the
// quick-profile subset on every change, so the deployable service and the
// simulator cannot silently drift apart.
package emul

import (
	"errors"
	"fmt"
	"net/http/httptest"
	"time"

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
// listener with every clock replaced by the engine's. The deployable
// Scheduler's Monitor is stepped by the core.Driver that steps core.Service's
// — at the same instants, the engine's own, with ONE aggregated progress-batch
// round trip per tick for every batch due — so the two deployments differ
// only in their ports. What a batch registered as, and what it used, is the
// Scheduler's record alone (SchedulerService.Usage).
type HTTPBackend struct {
	dgSrv *httptest.Server
	stack *service.Stack
	drv   *core.Driver
	err   error
}

// HTTPStack opens the HTTP-stack backend of a cell: the campaign.Job.Backend
// value of an emulated job (see Job).
func HTTPStack(eng *sim.Engine, primary middleware.Server, simCloud *cloud.SimCloud, cfg core.Config) campaign.Backend {
	// The DG gateway: the simulated server behind the DGGateway HTTP
	// interface, plus the cloud driver that turns Scheduler launches into
	// simulated workers.
	gw := NewSimDG(eng, primary, core.CloudDeployment{Deploy: cfg.Strategy.Deploy, Cloud: simCloud})
	b := &HTTPBackend{dgSrv: httptest.NewServer(gw.Handler())}
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
	b.stack.SetClock(func() time.Time { return virtualTime(eng.Now()) })
	b.drv = core.NewDriver(eng, b.stack.Scheduler.Monitor(), cfg)
	return b
}

// do runs one operation of the backend unless an earlier one failed, and
// keeps its failure — the first of the cell — with the operation's name, so a
// crowd debugging session is pointed at the failing registration, not at the
// monitor loop.
func (b *HTTPBackend) do(op string, f func() error) {
	if b.Err() != nil {
		return
	}
	if err := f(); err != nil {
		b.err = fmt.Errorf("emul: %s: %w", op, err)
	}
}

// Register is registerQoS + orderQoS of Fig 3, over the wire.
func (b *HTTPBackend) Register(id, envKey string, size int, tier core.Tier, credits float64, srv middleware.Server) {
	b.do("registration of "+id, func() error {
		if credits > 0 {
			if err := b.stack.CreditClient.Deposit("user", credits); err != nil {
				return err
			}
		}
		if err := b.stack.SchedulerClient.RegisterQoS(service.QoSRequest{
			User: "user", BatchID: id, EnvKey: envKey, Size: size, Credits: credits,
			Tier: string(tier), Provider: ProviderName, Image: "emul-worker",
		}); err != nil {
			return err
		}
		b.drv.Registered(srv)
		return nil
	})
}

// Usage is SchedulerService.Usage: the Scheduler's record, on the virtual
// clock's seconds, and its order's bill. CPU seconds stay zero: the stack
// bills credits and does not expose the cloud workers' clocks. A batch the
// Scheduler never registered is refused as core.Service refuses it; a failed
// bill lookup fails the cell.
func (b *HTTPBackend) Usage(id string) (u core.CloudUsage, err error) {
	if err = b.Err(); err != nil {
		return u, err
	}
	if u, err = b.stack.Scheduler.Usage(id); err != nil && !errors.Is(err, core.ErrUnknownBatch) {
		b.err = fmt.Errorf("emul: usage of %s: %w", id, err)
	}
	return u, err
}

// Err is the first failed round trip, or else the first failed monitor step.
func (b *HTTPBackend) Err() error {
	if b.err == nil && b.drv != nil && b.drv.Err() != nil {
		return fmt.Errorf("emul: monitor step: %w", b.drv.Err())
	}
	return b.err
}

// Close shuts the loopback servers down. The ticker dies with the cell's
// engine, as core.Service's does.
func (b *HTTPBackend) Close() {
	if b.stack != nil {
		b.stack.Close()
	}
	b.dgSrv.Close()
}
