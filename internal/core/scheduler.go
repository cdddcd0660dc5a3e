package core

import (
	"spequlos/internal/cloud"
	"spequlos/internal/middleware"
	"spequlos/internal/sim"
	"spequlos/internal/xwhep"
)

// Config parameterizes a SpeQuloS service instance.
type Config struct {
	// Strategy is the provisioning strategy combination.
	Strategy Strategy
	// MonitorPeriod is the Information/Scheduler loop period (the paper
	// monitors per minute; §3.2).
	MonitorPeriod float64
	// Tiers gates cloud-support admission when supply is contended. Nil
	// admits every triggered batch immediately — the untiered single-tenant
	// behavior.
	Tiers *TierPolicy
}

// CountDrivenTrigger marks Trigger implementations whose ShouldStart answer
// can only change when the batch's task counters (completed / ever-assigned)
// change. The monitor tick exploits the marker to skip batches with no task
// activity since the previous tick, making per-tick work proportional to
// infrastructure activity instead of registered batch count. A trigger that
// also reads infrastructure state (CapacityAware watches the attached worker
// count) must not implement it; every batch then stays on the every-tick
// path. The marker says which inputs the answer can change with, and skips
// the whole tick for a batch whose inputs did not move; Trigger.Floor says
// which values of the counters can never fire, and skips only the order
// lookup and the plan of a batch below them (Plan.Wait), every trigger
// having one.
type CountDrivenTrigger interface {
	// CountDriven is a marker; it is never called.
	CountDriven()
}

// Service is a SpeQuloS deployment inside a simulation: the four modules
// wired together per Fig 3, serving batches hosted on any number of DG
// servers. Its monitor loop is Monitor.Run over ports that call the modules,
// each batch's DG server and the simulated cloud directly, stepped by a
// Driver. (The deployable HTTP flavor lives in internal/service and runs the
// same loop over its own ports.)
//
// The service — monitor ticker, cloud, ledger — lives on one engine. A
// batch's server may live on another, typically a shard engine of a
// sim.Sharded kernel; cross-server effects then happen inside the monitor
// tick, which the kernel runs serially at barriers.
type Service struct {
	eng     *sim.Engine
	Info    *Information
	Credits *CreditSystem
	Oracle  *Oracle
	Cloud   *cloud.SimCloud

	// mon holds the batches. The service runs on one goroutine — shard
	// engines park while the service's engine ticks — so mon.Mu is never
	// contended here.
	mon    *Monitor
	deploy CloudDeployment
	drv    *Driver
}

// NewService wires a SpeQuloS service to a simulated cloud; each batch names
// its DG server when it registers.
func NewService(eng *sim.Engine, simCloud *cloud.SimCloud, cfg Config) *Service {
	s := &Service{
		eng:     eng,
		Info:    NewInformation(),
		Credits: NewCreditSystem(),
		Oracle:  NewOracle(cfg.Strategy),
		Cloud:   simCloud,
		deploy:  CloudDeployment{Deploy: cfg.Strategy.Deploy, Cloud: simCloud},
	}
	s.mon = &Monitor{Ports: (*simPorts)(s)}
	s.drv = NewDriver(eng, s.mon, cfg)
	return s
}

// RegisterQoS starts QoS support for a batch hosted on srv: Monitor.RegisterQoS
// at the engine's now, then Driver.Registered. envKey identifies the
// execution environment for α calibration; size is the BoT size; the tier
// only matters when Config.Tiers is set, where it decides admission priority
// and the share of contended cloud supply the batch competes for. The user
// submits the batch to srv separately, tagged with the same ID. srv must host
// only this service's batches.
func (s *Service) RegisterQoS(user, batchID, envKey string, size int, tier Tier, credits float64, srv middleware.Server) error {
	b := NewBatch(batchID, envKey, tier, s.eng.Now())
	b.srv = srv
	if err := s.mon.RegisterQoS(b, user, size, credits); err != nil {
		return err
	}
	s.drv.Registered(srv)
	return nil
}

// Usage reports the cloud consumption of a batch so far: Monitor.Usage, and
// the ledger's bill of its order.
func (s *Service) Usage(batchID string) (CloudUsage, error) {
	u, ordered, err := s.mon.Usage(batchID, s.eng.Now())
	if ordered {
		o, _ := s.Credits.OrderOf(batchID)
		u.CreditsBilled = o.Billed
	}
	return u, err
}

// Err is the first monitor step that failed (Driver.Err). The ports fail only
// where the ledger refuses (an order closed behind the service's back).
func (s *Service) Err() error { return s.drv.Err() }

// Driver decides when a Monitor on a simulation engine steps, whichever ports
// it runs over (core.Service's, or the deployable Scheduler's in internal/emul).
// Every step is at the engine's instant:
//   - a registration that finds no ticker armed arms one at the monitor
//     period, and the first tick that finds Monitor.Order empty stops it;
//   - its listener marks a batch dirty on each of its task events, so the
//     Monitor is count-driven exactly when the trigger is (CountDrivenTrigger);
//   - a completion steps the completed batch alone, at the completion instant:
//     its last sample, its final bill and its finalization. When the batch's
//     server runs on another engine — a shard's, in a parallel window of a
//     sharded kernel — the completion only marks the batch: finalization
//     touches the shared calibration archive and the cloud on the driver's
//     engine, so the next tick, a barrier, finds it done and finalizes it
//     serially.
//
// A failed step leaves its batches to the next one; Err keeps the first.
type Driver struct {
	eng    *sim.Engine
	mon    *Monitor
	cfg    Config
	ticker *sim.Ticker
	// listening holds the servers the listener is attached to.
	listening map[middleware.Server]bool
	err       error
}

// NewDriver schedules mon's steps on eng under cfg: its monitor period (60 s
// when unset, the per-minute monitoring of §3.2), its tier policy and its
// trigger, which sets mon.CountDriven.
func NewDriver(eng *sim.Engine, mon *Monitor, cfg Config) *Driver {
	if cfg.MonitorPeriod <= 0 {
		cfg.MonitorPeriod = 60
	}
	_, mon.CountDriven = cfg.Strategy.Trigger.(CountDrivenTrigger)
	return &Driver{eng: eng, mon: mon, cfg: cfg, listening: map[middleware.Server]bool{}}
}

// Registered follows a batch the Monitor registered on srv: the listener is
// attached to srv on its first batch, and the ticker armed if it is not.
func (d *Driver) Registered(srv middleware.Server) {
	if !d.listening[srv] {
		d.listening[srv] = true
		srv.AddListener(driverListener{d: d, deferred: srv.Engine() != d.eng})
	}
	if d.ticker == nil {
		d.ticker = d.eng.NewTicker(d.cfg.MonitorPeriod, d.tick)
	}
}

// Err is the first step that failed, nil while none has.
func (d *Driver) Err() error { return d.err }

// step is Monitor.Step at now, keeping the first failure.
func (d *Driver) step(now float64, only string) {
	if err := d.mon.Step(now, d.cfg.Tiers, only); err != nil && d.err == nil {
		d.err = err
	}
}

// tick is the combined Information/Scheduler monitor loop (Algorithms 1
// and 2 of §3.6) over the whole fleet (see Monitor.Due; idle live batches
// cost nothing beyond the scan). The ticker stops with the last live batch.
func (d *Driver) tick(now float64) {
	d.step(now, "")
	if len(d.mon.Order) == 0 {
		d.ticker.Stop()
		d.ticker = nil
	}
}

// driverListener is the Driver's listener on one DG server; deferred means
// the server's events fire on another engine than the driver's.
type driverListener struct {
	d        *Driver
	deferred bool
}

func (l driverListener) TaskAssigned(batchID string, _ int, _ float64) { l.d.markDirty(batchID) }
func (l driverListener) TaskCompleted(batchID string, _ int, _ *middleware.Worker, _ float64) {
	l.d.markDirty(batchID)
}
func (l driverListener) BatchCompleted(batchID string, at float64) {
	if l.deferred {
		l.d.markDirty(batchID)
		return
	}
	l.d.step(at, batchID)
}

// markDirty queues a batch for the next monitor tick: one map read.
func (d *Driver) markDirty(batchID string) {
	if b := d.mon.Batches[batchID]; b != nil {
		b.dirty = true
	}
}

// simPorts is a Service as the monitor's ports: each answers from the
// simulation's own modules, the batch's DG server and the simulated cloud.
type simPorts Service

func (p *simPorts) Order(b *Batch, user string, credits float64) error {
	return p.Credits.OrderQoS(user, b.ID, credits)
}

func (p *simPorts) Track(b *Batch, size int) (err error) {
	b.bi, err = p.Info.Track(b.ID, b.EnvKey, size, b.RegisteredAt)
	return err
}

func (p *simPorts) Progress(bs []*Batch) {
	for _, b := range bs {
		b.Progress = b.srv.Progress(b.ID)
	}
}

func (p *simPorts) Sample(bs []*Batch, ss []Sample) {
	for i, b := range bs {
		b.bi.add(ss[i])
	}
}

func (p *simPorts) Bill(bs []*Batch) {
	for _, b := range bs {
		b.Applied, b.Dry, b.Err = p.Credits.BillAll(b.ID, b.Charges)
	}
}

func (p *simPorts) Orders(bs []*Batch) {
	for _, b := range bs {
		o, _, funded := p.Credits.Lookup(b.ID)
		b.Funded, b.Remaining = funded, o.Remaining()
	}
}

func (p *simPorts) Plan(bs []*Batch) {
	for _, b := range bs {
		b.Plan = p.Oracle.Plan(b.bi.TickView(), p.Credits.CPUHoursFor(b.Remaining))
	}
}

func (p *simPorts) Idle(_ *Batch, inst *Instance) bool { return inst.Sim.Idle() }

func (p *simPorts) Stop(_ *Batch, inst *Instance) error {
	p.Cloud.Stop(inst.Sim)
	return nil
}

func (p *simPorts) Launch(b *Batch) (Instance, error) {
	return Instance{Sim: p.deploy.Start(b.srv, b.ID)}, nil
}

func (p *simPorts) Pay(bs []*Batch) {
	for _, b := range bs {
		_, b.Err = p.Credits.Pay(b.ID)
	}
}

// Archive hands each batch's tick view to the Oracle's archive rule.
func (p *simPorts) Archive(bs []*Batch) {
	for _, b := range bs {
		p.Oracle.Archive(b.bi.EnvKey, b.bi.TickView())
	}
}

// CloudDeployment is the DG side of a cloud launch: it starts simulated cloud
// workers under one deployment strategy (§3.5). Flat leaves the DG server
// unmodified, Reschedule has it feed the batch's dedicated cloud workers
// duplicates, CloudDuplication mirrors the uncompleted tail onto a cloud-hosted
// server on the primary's engine. Service launches through it in process,
// emul.SimDG from behind the HTTP stack's cloud driver.
type CloudDeployment struct {
	Deploy Deployment
	Cloud  *cloud.SimCloud
	// secondaries holds CloudDuplication's cloud-hosted server per batch.
	secondaries map[string]middleware.Server
}

// Start boots one cloud worker for a batch hosted on the primary server.
func (d *CloudDeployment) Start(primary middleware.Server, batchID string) *cloud.Instance {
	target := primary
	switch d.Deploy {
	case Reschedule:
		primary.SetReschedule(true)
	case CloudDuplication:
		target = d.secondary(primary, batchID)
	}
	return d.Cloud.Start(target, batchID, d.Deploy == Flat)
}

// secondary returns the batch's cloud-hosted server, on first use spinning it
// up, mirroring the uncompleted tail onto it and wiring bidirectional result
// merging: results computed in the cloud complete the primary's tasks,
// results arriving on the primary abort the cloud copies. The cloud side runs
// trusted resources, so the server is a single-execution XWHEP one whatever
// the primary middleware. It lives on the primary's engine, so each direction
// of the merge is a listener call at the completion instant, on whichever
// engine (serial, shard) hosts the batch.
func (d *CloudDeployment) secondary(primary middleware.Server, batchID string) middleware.Server {
	if sec, ok := d.secondaries[batchID]; ok {
		return sec
	}
	sec := xwhep.New(primary.Engine(), xwhep.DefaultConfig())
	sec.Submit(middleware.Batch{ID: batchID, Tasks: primary.Incomplete(batchID)})
	sec.AddListener(mirror{batchID: batchID, to: primary})
	primary.AddListener(mirror{batchID: batchID, to: sec})
	if d.secondaries == nil {
		d.secondaries = map[string]middleware.Server{}
	}
	d.secondaries[batchID] = sec
	return sec
}

// mirror passes one batch's task completions on a server on to another, on
// the same engine, with the worker that computed each: one direction of the
// merge between a primary and its cloud server.
type mirror struct {
	batchID string
	to      middleware.Server
}

func (m mirror) TaskAssigned(string, int, float64) {}
func (m mirror) TaskCompleted(batchID string, taskID int, by *middleware.Worker, _ float64) {
	if batchID == m.batchID {
		m.to.MarkCompleted(batchID, taskID, by)
	}
}
func (m mirror) BatchCompleted(string, float64) {}
