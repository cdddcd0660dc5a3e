package core

import (
	"fmt"

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
// path.
type CountDrivenTrigger interface {
	// CountDriven is a marker; it is never called.
	CountDriven()
}

// CloudUsage summarizes the cloud resources consumed for one batch.
type CloudUsage struct {
	InstancesStarted int
	CPUSeconds       float64
	CreditsBilled    float64
	CreditsAllocated float64
	Exhausted        bool
	TriggeredAt      float64 // -1 if cloud support never started
}

// Service is a SpeQuloS deployment inside a simulation: the four modules
// wired together per Fig 3, serving batches hosted on any number of DG
// servers. Its monitor loop is Monitor.Run over ports that call the modules,
// each batch's DG server and the simulated cloud directly. (The deployable
// HTTP flavor lives in internal/service and runs the same loop over its own
// ports.)
//
// The service — monitor ticker, cloud, ledger — lives on one engine. A
// batch's server may live on another, typically a shard engine of a
// sim.Sharded kernel; cross-server effects then happen inside the monitor
// tick, which the kernel runs serially at barriers.
type Service struct {
	eng     *sim.Engine
	cfg     Config
	Info    *Information
	Credits *CreditSystem
	Oracle  *Oracle
	Cloud   *cloud.SimCloud

	// mon holds the batches. The service runs on one goroutine — shard
	// engines park while the service's engine ticks — so mon.Mu is not taken
	// here.
	mon    *Monitor
	deploy CloudDeployment
	ticker *sim.Ticker
	// listening holds the servers the service's listener is attached to.
	listening map[middleware.Server]bool
	// due and work back the per-tick due list and the tick's selections,
	// reused so a tick allocates nothing proportional to the batch count.
	due  []*Batch
	work Scratch
}

// NewService wires a SpeQuloS service to a simulated cloud; each batch names
// its DG server when it registers.
func NewService(eng *sim.Engine, simCloud *cloud.SimCloud, cfg Config) *Service {
	if cfg.MonitorPeriod <= 0 {
		cfg.MonitorPeriod = 60
	}
	s := &Service{
		eng:       eng,
		cfg:       cfg,
		Info:      NewInformation(),
		Credits:   NewCreditSystem(),
		Oracle:    NewOracle(cfg.Strategy),
		Cloud:     simCloud,
		deploy:    CloudDeployment{Deploy: cfg.Strategy.Deploy, Cloud: simCloud},
		listening: map[middleware.Server]bool{},
	}
	_, countDriven := cfg.Strategy.Trigger.(CountDrivenTrigger)
	s.mon = &Monitor{Ports: (*simPorts)(s), CountDriven: countDriven}
	return s
}

// serviceListener keeps the due list current and finalizes QoS support for a
// completed batch: at the completion instant when the server shares the
// service's engine, else at the next tick.
type serviceListener struct {
	s *Service
	// deferred: the server's events fire on another engine, during a
	// parallel window of a sharded kernel. Finalization touches the shared
	// calibration archive and the cloud on the service's engine, so the
	// completion only marks the batch, routing it into the next tick — a
	// barrier — which finds it done and finalizes it serially.
	deferred bool
}

func (l serviceListener) TaskAssigned(batchID string, _ int, _ float64) {
	l.s.markDirty(batchID)
}
func (l serviceListener) TaskCompleted(batchID string, _ int, _ float64) {
	l.s.markDirty(batchID)
}
func (l serviceListener) BatchCompleted(batchID string, at float64) {
	if l.deferred {
		l.s.markDirty(batchID)
		return
	}
	// A tick over the one batch: its last sample, its final bill and its
	// finalization, at the completion instant.
	if b := l.s.mon.Batches[batchID]; b != nil && !b.Finalized {
		_ = l.s.mon.Run(at, l.s.cfg.Tiers, []*Batch{b}, &Scratch{})
	}
}

// markDirty queues a batch for the next monitor tick.
func (s *Service) markDirty(batchID string) {
	if b := s.mon.Batches[batchID]; b != nil {
		b.dirty = true
	}
}

// RegisterQoS starts QoS support for a batch hosted on srv: the registerQoS
// and orderQoS calls of Fig 3 in one. envKey identifies the execution
// environment for α calibration; size is the BoT size; the tier only matters
// when Config.Tiers is set, where it decides admission priority and the share
// of contended cloud supply the batch competes for. When credits > 0 they are
// ordered from the user's account first, so a refused order, like a
// duplicate ID, registers nothing. The batch must be submitted to srv by the
// user separately, tagged with the same ID. srv must host only this service's
// batches; the service attaches its listener to it on its first batch.
func (s *Service) RegisterQoS(user, batchID, envKey string, size int, tier Tier, credits float64, srv middleware.Server) error {
	if s.mon.Batches[batchID] != nil {
		return fmt.Errorf("core: batch %q already registered", batchID)
	}
	if credits > 0 {
		if err := s.Credits.OrderQoS(user, batchID, credits); err != nil {
			return err
		}
	}
	bi, err := s.Info.Track(batchID, envKey, size, s.eng.Now())
	if err != nil {
		if credits > 0 {
			_, _ = s.Credits.Pay(batchID) // refunds the order just placed; cannot fail, it exists
		}
		return err
	}
	b := NewBatch(batchID, envKey, tier, s.eng.Now())
	b.srv, b.bi, b.Ordered = srv, bi, credits > 0
	_ = s.mon.Register(b) // cannot fail: the ID was checked above
	if !s.listening[srv] {
		s.listening[srv] = true
		srv.AddListener(serviceListener{s: s, deferred: srv.Engine() != s.eng})
	}
	if s.ticker == nil {
		s.ticker = s.eng.NewTicker(s.cfg.MonitorPeriod, s.tick)
	}
	return nil
}

// Usage reports the cloud consumption of a batch so far.
func (s *Service) Usage(batchID string) (CloudUsage, error) {
	b := s.mon.Batches[batchID]
	if b == nil {
		return CloudUsage{}, fmt.Errorf("core: batch %q not registered", batchID)
	}
	u := CloudUsage{
		InstancesStarted: len(b.Instances),
		Exhausted:        b.Exhausted,
		TriggeredAt:      b.TriggeredAt,
	}
	for i := range b.Instances {
		u.CPUSeconds += b.Instances[i].Sim.CPUSeconds(s.eng.Now())
	}
	if o, ok := s.Credits.OrderOf(batchID); ok {
		u.CreditsBilled = o.Billed
		u.CreditsAllocated = o.Allocated
	}
	return u, nil
}

// tick is the combined Information/Scheduler monitor loop (Algorithms 1
// and 2 of §3.6): Monitor.Run over the due batches (see Monitor.Due; idle
// live batches cost nothing beyond the scan). The ticker stops with the last
// live batch.
func (s *Service) tick(now float64) {
	s.due = s.mon.Due(s.due[:0])
	if len(s.mon.Order) == 0 {
		s.ticker.Stop()
		s.ticker = nil
		return
	}
	// These ports fail only where the ledger refuses (an order closed behind
	// the service's back); the batch is retried next tick like any failed one.
	_ = s.mon.Run(now, s.cfg.Tiers, s.due, &s.work)
}

// simPorts is a Service as the monitor's ports: each answers from the
// simulation's own modules, the batch's DG server and the simulated cloud.
type simPorts Service

func (p *simPorts) Progress(bs []*Batch) {
	for _, b := range bs {
		b.Progress = b.srv.Progress(b.ID)
	}
}

func (p *simPorts) Sample(now float64, bs []*Batch) {
	for _, b := range bs {
		pr := b.Progress
		b.bi.add(Sample{T: now - b.bi.SubmittedAt, Completed: pr.Completed, Assigned: pr.EverAssigned,
			Queued: pr.Queued, Running: pr.Running, Workers: pr.Workers})
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

func (p *simPorts) Idle(_ *Batch, inst *Instance) bool { return inst.Sim.Booted() && !inst.Sim.Busy() }

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

// Archive records each batch's execution (TickView.Execution).
func (p *simPorts) Archive(bs []*Batch) {
	for _, b := range bs {
		if base, actual, ok := b.bi.TickView().Execution(); ok {
			p.Oracle.Calibration.Record(b.bi.EnvKey, base, actual)
		}
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
// the same engine: one direction of the merge between a primary and its
// cloud server.
type mirror struct {
	batchID string
	to      middleware.Server
}

func (m mirror) TaskAssigned(string, int, float64) {}
func (m mirror) TaskCompleted(batchID string, taskID int, _ float64) {
	if batchID == m.batchID {
		m.to.MarkCompleted(batchID, taskID)
	}
}
func (m mirror) BatchCompleted(string, float64) {}
