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

// Service is a SpeQuloS deployment bound to one Desktop Grid server inside
// a simulation: the four modules wired together per Fig 3. Its monitor loop
// is Monitor.Run over ports that call the modules, the DG server and the
// simulated cloud directly. (The deployable HTTP flavor lives in
// internal/service and runs the same loop over its own ports.)
type Service struct {
	eng     *sim.Engine
	cfg     Config
	Info    *Information
	Credits *CreditSystem
	Oracle  *Oracle
	Cloud   *cloud.SimCloud

	primary middleware.Server
	// sharded marks a multi-server deployment (NewShardedService): every
	// batch binds its own DG server, typically living on a shard engine of a
	// sim.Sharded kernel while the Service runs on the control engine.
	sharded bool
	// batches resolves every batch ever registered (Usage and Predict answer
	// for finalized ones too), mon holds the live ones. The service runs on
	// one goroutine — shard engines park while the control engine ticks — so
	// mon.Mu is not taken here.
	batches map[string]*Batch
	mon     *Monitor
	deploy  CloudDeployment
	ticker  *sim.Ticker
	// due and work back the per-tick due list and the tick's selections,
	// reused so a tick allocates nothing proportional to the batch count.
	due  []*Batch
	work Scratch
}

// NewService wires a SpeQuloS service to a DG server and a simulated cloud.
func NewService(eng *sim.Engine, primary middleware.Server, simCloud *cloud.SimCloud, cfg Config) *Service {
	s := newService(eng, simCloud, cfg)
	s.primary = primary
	primary.AddListener(serviceListener{s})
	return s
}

// NewShardedService wires a SpeQuloS service that spans multiple DG
// servers: every batch registers with its own server
// (RegisterQoSShardTier), typically hosted on a shard engine of a
// sim.Sharded kernel while the service itself — monitor ticker, cloud,
// ledger — lives on the control engine. Cross-server effects happen inside
// the monitor tick, which the kernel runs serially at barriers.
//
// Every deployment is supported. A cloud worker boots on the control
// engine and joins its batch's server at a barrier; CloudDuplication's
// cloud-hosted server lives on its primary's engine, so the result merge in
// both directions stays on the batch's own shard.
func NewShardedService(eng *sim.Engine, simCloud *cloud.SimCloud, cfg Config) *Service {
	s := newService(eng, simCloud, cfg)
	s.sharded = true
	return s
}

// newService resolves the config defaults and builds the service both
// deployments share; the caller binds it to its server(s).
func newService(eng *sim.Engine, simCloud *cloud.SimCloud, cfg Config) *Service {
	if cfg.MonitorPeriod <= 0 {
		cfg.MonitorPeriod = 60
	}
	s := &Service{
		eng:     eng,
		cfg:     cfg,
		Info:    NewInformation(),
		Credits: NewCreditSystem(),
		Oracle:  NewOracle(cfg.Strategy),
		Cloud:   simCloud,
		batches: map[string]*Batch{},
		deploy:  CloudDeployment{Deploy: cfg.Strategy.Deploy, Cloud: simCloud},
	}
	_, countDriven := cfg.Strategy.Trigger.(CountDrivenTrigger)
	s.mon = &Monitor{Ports: (*simPorts)(s), CountDriven: countDriven}
	return s
}

// serviceListener keeps the due list current and finalizes QoS support the
// instant a batch completes.
type serviceListener struct{ s *Service }

func (l serviceListener) TaskAssigned(batchID string, _ int, _ float64) {
	l.s.markDirty(batchID)
}
func (l serviceListener) TaskCompleted(batchID string, _ int, _ float64) {
	l.s.markDirty(batchID)
}
func (l serviceListener) BatchCompleted(batchID string, at float64) {
	if l.s.sharded {
		// Sharded mode: the completion fires on a shard engine during a
		// parallel window. Finalization touches the shared calibration
		// archive and the control-engine cloud, so it is deferred — the mark
		// routes the batch into the next barrier tick, which finds it done
		// and finalizes serially.
		l.s.markDirty(batchID)
		return
	}
	// A tick over the one batch: its last sample, its final bill and its
	// finalization, at the completion instant.
	if b := l.s.batches[batchID]; b != nil && !b.Finalized {
		_ = l.s.mon.Run(at, l.s.cfg.Tiers, []*Batch{b}, &Scratch{})
	}
}

// markDirty queues a batch for the next monitor tick.
func (s *Service) markDirty(batchID string) {
	if b := s.batches[batchID]; b != nil {
		b.dirty = true
	}
}

// RegisterQoS starts QoS support for a batch (the registerQoS call of
// Fig 3). envKey identifies the execution environment for α calibration;
// size is the BoT size. The batch must be submitted to the DG server by the
// user separately, tagged with the same ID.
func (s *Service) RegisterQoS(user, batchID, envKey string, size int) error {
	return s.RegisterQoSTier(user, batchID, envKey, size, "")
}

// RegisterQoSTier registers a batch under a QoS service class. The tier
// only matters when Config.Tiers is set; it then decides admission priority
// and the share of contended cloud supply the batch competes for.
func (s *Service) RegisterQoSTier(user, batchID, envKey string, size int, tier Tier) error {
	if s.sharded {
		return fmt.Errorf("core: sharded service requires RegisterQoSShardTier (batch %q)", batchID)
	}
	return s.register(batchID, envKey, size, tier, s.primary)
}

// RegisterQoSShardTier registers a batch of a sharded service under a QoS
// service class, together with the DG server hosting it. The server must
// host only this service's batches and must not be shared across shard
// engines; the service attaches its activity listener to it. The tier only
// matters when Config.Tiers is set: admission is arbitrated inside the
// monitor tick, on the control engine. Only valid on a NewShardedService
// instance.
func (s *Service) RegisterQoSShardTier(user, batchID, envKey string, size int, tier Tier, srv middleware.Server) error {
	if !s.sharded {
		return fmt.Errorf("core: RegisterQoSShardTier requires NewShardedService (batch %q)", batchID)
	}
	if err := s.register(batchID, envKey, size, tier, srv); err != nil {
		return err
	}
	srv.AddListener(serviceListener{s})
	return nil
}

func (s *Service) register(batchID, envKey string, size int, tier Tier, srv middleware.Server) error {
	if s.batches[batchID] != nil {
		return fmt.Errorf("core: batch %q already registered", batchID)
	}
	bi, err := s.Info.Track(batchID, envKey, size, s.eng.Now())
	if err != nil {
		return err
	}
	b := NewBatch(batchID, envKey, tier, s.eng.Now())
	b.srv, b.bi = srv, bi
	s.batches[batchID] = b
	s.mon.Order = append(s.mon.Order, b)
	if s.ticker == nil {
		s.ticker = s.eng.NewTicker(s.cfg.MonitorPeriod, s.tick)
	}
	return nil
}

// OrderQoS provisions credits for a batch from the user's account.
func (s *Service) OrderQoS(user, batchID string, credits float64) error {
	b := s.batches[batchID]
	if b == nil {
		return fmt.Errorf("core: batch %q not registered", batchID)
	}
	if err := s.Credits.OrderQoS(user, batchID, credits); err != nil {
		return err
	}
	// Fresh credits can turn an idle batch startable: re-examine it.
	b.Ordered, b.dirty = true, true
	return nil
}

// Usage reports the cloud consumption of a batch so far.
func (s *Service) Usage(batchID string) (CloudUsage, error) {
	b := s.batches[batchID]
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
		b.bi.AddSampleWorkers(now, pr.Completed, pr.EverAssigned, pr.Queued, pr.Running, pr.Workers)
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
		b.Plan = p.Oracle.Plan(b.bi.View(), p.Credits.CPUHoursFor(b.Remaining))
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

func (p *simPorts) Pay(b *Batch) error {
	_, err := p.Credits.Pay(b.ID)
	return err
}

// Archive records the (base, actual) pair measured at 50% completion, the
// evaluation point of Table 4.
func (p *simPorts) Archive(b *Batch) error {
	if tc50, ok := b.bi.TimeAtCompletion(0.5); b.bi.Done() && ok && tc50 > 0 {
		p.Oracle.Calibration.Record(b.bi.EnvKey, tc50/0.5, b.bi.CompletedAt)
	}
	return nil
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
