package core

import (
	"fmt"

	"spequlos/internal/cloud"
	"spequlos/internal/middleware"
	"spequlos/internal/sim"
)

// Config parameterizes a SpeQuloS service instance.
type Config struct {
	// Strategy is the provisioning strategy combination.
	Strategy Strategy
	// MonitorPeriod is the Information/Scheduler loop period (the paper
	// monitors per minute; §3.2).
	MonitorPeriod float64
	// CloudServerFactory builds the dedicated cloud-hosted server used by
	// the CloudDuplication deployment. The cloud side runs trusted
	// resources, so a single-execution (XWHEP-style) server is appropriate
	// regardless of the primary middleware.
	CloudServerFactory func() middleware.Server
	// Tiers gates cloud-support admission when supply is contended. Nil
	// admits every triggered batch immediately — the untiered single-tenant
	// behavior.
	Tiers *TierPolicy
	// MirrorPost routes a primary-side CloudDuplication completion into the
	// kernel's barrier-exchange stream instead of touching the cloud server
	// directly. Required (and only used) by a sharded service running the
	// CloudDuplication deployment: the primary servers live on shard
	// engines, so their listeners fire during parallel windows and must not
	// mutate the control-hosted cloud server. The campaign layer wires it to
	// a per-batch sim.Outbox whose topic handler calls DeliverMirror at the
	// next barrier.
	MirrorPost func(batchID string, taskID int, at float64)
}

// DefaultConfig returns a config with the paper's defaults (strategy
// 9C-C-R, one-minute monitoring).
func DefaultConfig() Config {
	return Config{Strategy: DefaultStrategy(), MonitorPeriod: 60}
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
// a simulation: the four modules wired together per Fig 3. (The deployable
// HTTP flavor lives in internal/service and reuses the same modules.)
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
	// batches resolves every batch ever registered, finalized ones included:
	// Usage and Predict answer for them too.
	batches map[string]*qosBatch
	// order holds the batches not yet finalized, in registration order (map
	// iteration order would make multi-batch runs non-reproducible for a given
	// seed). The tick drops a batch from it on the first pass after its
	// finalization, so a tick costs nothing for batches that are done.
	order  []*qosBatch
	ticker *sim.Ticker
	// countDriven records whether the trigger allows the due-list
	// optimization (see CountDrivenTrigger).
	countDriven bool
	// dueScratch backs the per-tick due-batch snapshot, reused so a tick
	// allocates nothing proportional to the batch count.
	dueScratch []*qosBatch
	// cands collects this tick's tier-admission candidates — the batches whose
	// plan says start — for admit; reused. Only used with Tiers set.
	cands []TierCandidate
}

// batchPlan is the mutation set one batch's plan step computed and the apply
// step executes. Plan steps only touch per-batch state and the credit ledger;
// everything that mutates the engine, the middleware or the cloud is deferred
// here, past tier admission.
type batchPlan struct {
	finalize bool
	stops    []*cloud.Instance
	start    int
}

type qosBatch struct {
	id   string
	user string
	tier Tier
	// srv is the DG server hosting the batch: the service-wide primary in
	// the single-server deployment, the batch's own server in sharded mode.
	srv       middleware.Server
	bi        *BatchInfo
	started   bool // cloud support triggered
	triggered float64
	// releaseIdle is the release policy of the Oracle's plan to start: stop
	// booted workers that obtained no work.
	releaseIdle bool
	exhausted   bool
	finalized   bool

	// dirty means task events touched the batch since its last step; clean
	// batches with no live instances and nothing pending are skipped by
	// count-driven triggers.
	dirty bool
	// armed means the plan said start but tier admission denied a slot, so
	// the batch must be re-examined every tick.
	armed bool
	// eligibleSince is the virtual time the plan first said start; admission
	// scoring boosts longer waits. -1 until eligible.
	eligibleSince float64
	plan          batchPlan

	instances []*cloud.Instance
	lastBill  map[*cloud.Instance]float64
	cloudSrv  middleware.Server // CloudDuplication secondary
}

// hasLiveInstances reports whether any cloud instance is still running —
// such batches are billed every tick regardless of task activity.
func (qb *qosBatch) hasLiveInstances() bool {
	for _, inst := range qb.instances {
		if inst.Running() {
			return true
		}
	}
	return false
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
// the monitor tick, which the kernel runs serially at barriers, or arrive
// as barrier-exchange messages.
//
// Every deployment is supported. CloudDuplication's cloud-to-primary
// mirror runs directly (the cloud server lives on the control engine and
// its completions fire at barriers, when shard clocks are parked); the
// primary-to-cloud direction fires on shard goroutines during parallel
// windows, so it must ride the barrier exchange — Config.MirrorPost is
// required and DeliverMirror replays the messages.
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
	_, countDriven := cfg.Strategy.Trigger.(CountDrivenTrigger)
	return &Service{
		eng:         eng,
		cfg:         cfg,
		Info:        NewInformation(),
		Credits:     NewCreditSystem(),
		Oracle:      NewOracle(cfg.Strategy),
		Cloud:       simCloud,
		batches:     map[string]*qosBatch{},
		countDriven: countDriven,
	}
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
		// routes the batch into the next barrier tick, whose plan step sees
		// Done() and finalizes serially.
		l.s.markDirty(batchID)
		return
	}
	if qb, ok := l.s.batches[batchID]; ok {
		l.s.finalize(qb)
	}
}

// markDirty queues a batch for the next monitor tick.
func (s *Service) markDirty(batchID string) {
	if qb, ok := s.batches[batchID]; ok {
		qb.dirty = true
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
	return s.register(user, batchID, envKey, size, tier, s.primary)
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
	if err := s.register(user, batchID, envKey, size, tier, srv); err != nil {
		return err
	}
	srv.AddListener(serviceListener{s})
	return nil
}

func (s *Service) register(user, batchID, envKey string, size int, tier Tier, srv middleware.Server) error {
	if _, ok := s.batches[batchID]; ok {
		return fmt.Errorf("core: batch %q already registered", batchID)
	}
	bi, err := s.Info.Track(batchID, envKey, size, s.eng.Now())
	if err != nil {
		return err
	}
	qb := &qosBatch{
		id: batchID, user: user, tier: tier, srv: srv, bi: bi, triggered: -1,
		dirty: true, eligibleSince: -1,
		lastBill: map[*cloud.Instance]float64{},
	}
	s.batches[batchID] = qb
	s.order = append(s.order, qb)
	if s.ticker == nil {
		s.ticker = s.eng.NewTicker(s.cfg.MonitorPeriod, s.tick)
	}
	return nil
}

// OrderQoS provisions credits for a batch from the user's account.
func (s *Service) OrderQoS(user, batchID string, credits float64) error {
	if _, ok := s.batches[batchID]; !ok {
		return fmt.Errorf("core: batch %q not registered", batchID)
	}
	if err := s.Credits.OrderQoS(user, batchID, credits); err != nil {
		return err
	}
	// Fresh credits can turn an idle batch startable: re-examine it.
	s.markDirty(batchID)
	return nil
}

// Predict returns the Oracle's completion-time prediction for a batch
// (the getQoSInformation call of Fig 3).
func (s *Service) Predict(batchID string) (Prediction, error) {
	bi := s.Info.Get(batchID)
	if bi == nil {
		return Prediction{}, fmt.Errorf("core: batch %q not registered", batchID)
	}
	s.observe(s.batches[batchID])
	return s.Oracle.Predict(bi, s.eng.Now())
}

// Usage reports the cloud consumption of a batch so far.
func (s *Service) Usage(batchID string) (CloudUsage, error) {
	qb, ok := s.batches[batchID]
	if !ok {
		return CloudUsage{}, fmt.Errorf("core: batch %q not registered", batchID)
	}
	u := CloudUsage{
		InstancesStarted: len(qb.instances),
		Exhausted:        qb.exhausted,
		TriggeredAt:      qb.triggered,
	}
	for _, inst := range qb.instances {
		u.CPUSeconds += inst.CPUSeconds(s.eng.Now())
	}
	if o, ok := s.Credits.OrderOf(batchID); ok {
		u.CreditsBilled = o.Billed
		u.CreditsAllocated = o.Allocated
	}
	return u, nil
}

// tick is the combined Information/Scheduler monitor loop (Algorithms 1
// and 2 of §3.6), split into three phases:
//
//  1. Due selection — one pass over the live batches that also drops the
//     ones finalized since the last tick. With a count-driven trigger, only
//     batches with task activity since their last step, live instances to
//     bill, or a deferred start are stepped; idle live batches cost nothing
//     beyond the scan, and a stepped batch is polled by its own plan step.
//  2. Plan — per-batch decision steps (observe, Algorithm 2 billing, the
//     Oracle's Algorithm 1 plan) in registration order. Plan steps touch
//     only per-batch state and the credit ledger.
//  3. Apply — tier admission over every batch whose plan says start, then
//     every deferred mutation (cloud stops and starts, deployment switches,
//     finalization) in registration order.
//
// The deployable Scheduler (internal/service) runs the same three phases
// over HTTP: the same Oracle.Plan per batch, the same TierPolicy.Admit call
// on the same inputs before its apply loop.
func (s *Service) tick(now float64) {
	s.dueScratch = s.dueScratch[:0]
	live := s.order[:0]
	for _, qb := range s.order {
		if qb.finalized {
			continue
		}
		live = append(live, qb)
		if s.countDriven && !qb.dirty && !qb.armed && !qb.hasLiveInstances() {
			continue
		}
		s.dueScratch = append(s.dueScratch, qb)
	}
	s.order = live
	if len(live) == 0 {
		if s.ticker != nil {
			s.ticker.Stop()
			s.ticker = nil
		}
		return
	}
	if len(s.dueScratch) == 0 {
		return
	}
	s.cands = s.cands[:0]
	for _, qb := range s.dueScratch {
		s.planBatch(qb)
	}
	s.admit(now)
	for _, qb := range s.dueScratch {
		s.applyBatch(qb)
	}
}

// planBatch computes one batch's monitor step without mutating anything
// batches share: it samples progress, bills running instances against the
// ledger, and records the stops and starts for the apply phase.
func (s *Service) planBatch(qb *qosBatch) {
	qb.plan = batchPlan{stops: qb.plan.stops[:0]}
	qb.dirty = false
	s.observe(qb)
	if qb.bi.Done() {
		qb.plan.finalize = true
		return
	}
	s.planManage(qb) // Algorithm 2
	s.planStart(qb)  // Algorithm 1
	if s.cfg.Tiers != nil && qb.plan.start > 0 {
		s.cands = append(s.cands, TierCandidate{BatchID: qb.id, Tier: qb.tier, Since: qb.eligibleSince})
	}
}

// observe samples the primary server's view of the batch.
func (s *Service) observe(qb *qosBatch) {
	if qb == nil || qb.finalized {
		return
	}
	p := qb.srv.Progress(qb.id)
	qb.bi.AddSampleWorkers(s.eng.Now(), p.Completed, p.EverAssigned, p.Queued, p.Running, p.Workers)
}

// planManage bills running instances and marks the ones no longer useful or
// fundable for termination (Algorithm 2). Ledger mutations happen here; the
// actual cloud stops run in the apply phase.
func (s *Service) planManage(qb *qosBatch) {
	now := s.eng.Now()
	for _, inst := range qb.instances {
		if !inst.Running() {
			continue
		}
		sec := now - qb.lastBill[inst]
		qb.lastBill[inst] = now
		_, exhausted, err := s.Credits.Bill(qb.id, s.Credits.CreditsForCPUSeconds(sec))
		if err != nil || exhausted {
			qb.exhausted = true
			break
		}
	}
	if qb.exhausted {
		for _, inst := range qb.instances {
			if inst.Running() {
				s.billInstanceFinal(qb, inst)
				qb.plan.stops = append(qb.plan.stops, inst)
			}
		}
		return
	}
	if qb.releaseIdle {
		for _, inst := range qb.instances {
			if inst.Running() && inst.Booted() && !inst.Busy() {
				s.billInstanceFinal(qb, inst)
				qb.plan.stops = append(qb.plan.stops, inst)
			}
		}
	}
}

// planStart asks the Oracle whether cloud support should begin and with how
// many workers (Algorithm 1), for a batch that has not started it and still
// has credits; the apply phase executes the starts once tier admission
// confirms the slot.
func (s *Service) planStart(qb *qosBatch) {
	qb.armed = false
	if qb.started || qb.exhausted || !s.Credits.HasCredits(qb.id) {
		return
	}
	order, _ := s.Credits.OrderOf(qb.id)
	p := s.Oracle.Plan(qb.bi.View(), s.Credits.CPUHoursFor(order.Remaining()))
	if !p.Start {
		return
	}
	if qb.eligibleSince < 0 {
		qb.eligibleSince = s.eng.Now()
	}
	qb.plan.start, qb.releaseIdle = p.Workers, p.ReleaseIdle
}

// admit runs tier admission over this tick's would-start batches: denied
// batches stay armed and retry next tick with a higher wait-boosted score.
// Without a tier policy every planned start proceeds.
//
// It runs on the control engine, and TierPolicy.Admit ranks candidates by
// (score, BatchID), so the decisions do not depend on the kernel's shard
// count. A fleet counts as held until its stops are applied: a slot freed
// this tick is granted on the next.
func (s *Service) admit(now float64) {
	cands := s.cands
	if s.cfg.Tiers == nil || len(cands) == 0 {
		return
	}
	activeByTier := map[Tier]int{}
	for _, qb := range s.order {
		if !qb.finalized && qb.hasLiveInstances() {
			activeByTier[qb.tier.OrFree()]++
		}
	}
	admitted := s.cfg.Tiers.Admit(now, activeByTier, cands)
	for _, c := range cands {
		if !admitted[c.BatchID] {
			qb := s.batches[c.BatchID]
			qb.plan.start = 0
			qb.armed = true
		}
	}
}

// applyBatch executes one batch's planned mutations: finalization, cloud
// stops, deployment switches and cloud starts. Runs serially in
// registration order so engine, middleware and RNG interactions are
// deterministic.
func (s *Service) applyBatch(qb *qosBatch) {
	if qb.finalized {
		return // finalized by an earlier batch's side effects this tick
	}
	if qb.plan.finalize {
		s.finalize(qb)
		return
	}
	for _, inst := range qb.plan.stops {
		s.Cloud.Stop(inst)
	}
	if qb.plan.start <= 0 {
		return
	}
	qb.started = true
	qb.triggered = s.eng.Now()

	target := qb.srv
	switch s.cfg.Strategy.Deploy {
	case Reschedule:
		qb.srv.SetReschedule(true)
	case CloudDuplication:
		target = s.startCloudServer(qb)
	}
	flat := s.cfg.Strategy.Deploy == Flat
	for i := 0; i < qb.plan.start; i++ {
		inst := s.Cloud.Start(target, qb.id, flat)
		qb.instances = append(qb.instances, inst)
		qb.lastBill[inst] = s.eng.Now()
	}
}

// startCloudServer spins up the dedicated cloud-hosted server of the
// CloudDuplication strategy, mirrors the uncompleted tail onto it, and
// wires bidirectional result merging.
func (s *Service) startCloudServer(qb *qosBatch) middleware.Server {
	factory := s.cfg.CloudServerFactory
	if factory == nil {
		panic("core: CloudDuplication requires a CloudServerFactory")
	}
	sec := factory()
	tail := qb.srv.Incomplete(qb.id)
	sec.Submit(middleware.Batch{ID: qb.id, Tasks: tail})
	// Results computed in the cloud complete the primary's tasks; results
	// arriving on the primary abort the cloud copies.
	sec.AddListener(mirror{from: sec, to: qb.srv, batchID: qb.id})
	if s.sharded {
		// The primary lives on a shard engine: its completions fire during
		// parallel windows, so the primary→cloud direction must ride the
		// barrier exchange instead of touching the control-hosted cloud
		// server directly. (Cloud→primary above is safe as-is: it fires at
		// barriers, with every shard clock parked.)
		if s.cfg.MirrorPost == nil {
			panic("core: sharded CloudDuplication requires Config.MirrorPost")
		}
		qb.srv.AddListener(postMirror{batchID: qb.id, post: s.cfg.MirrorPost})
	} else {
		qb.srv.AddListener(mirror{from: qb.srv, to: sec, batchID: qb.id})
	}
	qb.cloudSrv = sec
	return sec
}

// DeliverMirror completes a task on a batch's CloudDuplication cloud
// server: the barrier-exchange replay of a primary-side completion posted
// through Config.MirrorPost. Safe to call for completions that were echoed
// back (MarkCompleted on a completed task is a no-op) and after the cloud
// server is gone (the message is then dropped).
func (s *Service) DeliverMirror(batchID string, taskID int) {
	if qb, ok := s.batches[batchID]; ok && qb.cloudSrv != nil {
		qb.cloudSrv.MarkCompleted(batchID, taskID)
	}
}

// mirror merges completions between the primary and the cloud server.
type mirror struct {
	from, to middleware.Server
	batchID  string
}

func (m mirror) TaskAssigned(string, int, float64) {}
func (m mirror) TaskCompleted(batchID string, taskID int, _ float64) {
	if batchID == m.batchID {
		m.to.MarkCompleted(batchID, taskID)
	}
}
func (m mirror) BatchCompleted(string, float64) {}

// postMirror is the sharded flavor of the primary→cloud mirror direction:
// instead of completing the cloud copy inline (a cross-engine mutation
// from a shard goroutine), it posts the completion through
// Config.MirrorPost; the kernel replays it at the next barrier via
// Service.DeliverMirror.
type postMirror struct {
	batchID string
	post    func(batchID string, taskID int, at float64)
}

// TaskAssigned implements middleware.Listener; assignments are not mirrored.
func (m postMirror) TaskAssigned(string, int, float64) {}

// TaskCompleted posts the completion into the barrier-exchange stream.
func (m postMirror) TaskCompleted(batchID string, taskID int, at float64) {
	if batchID == m.batchID {
		m.post(batchID, taskID, at)
	}
}

// BatchCompleted implements middleware.Listener; completion of the batch
// itself is observed by the monitor tick, not mirrored.
func (m postMirror) BatchCompleted(string, float64) {}

// billInstanceFinal settles an instance's outstanding usage before a stop.
func (s *Service) billInstanceFinal(qb *qosBatch, inst *cloud.Instance) {
	if !inst.Running() {
		return
	}
	now := s.eng.Now()
	sec := now - qb.lastBill[inst]
	qb.lastBill[inst] = now
	if _, exhausted, err := s.Credits.Bill(qb.id, s.Credits.CreditsForCPUSeconds(sec)); err == nil && exhausted {
		qb.exhausted = true
	}
}

// stopInstances settles and terminates every running instance of a batch.
func (s *Service) stopInstances(qb *qosBatch) {
	for _, inst := range qb.instances {
		if inst.Running() {
			s.billInstanceFinal(qb, inst)
			s.Cloud.Stop(inst)
		}
	}
}

// finalize ends QoS support: settles billing, stops cloud workers, pays the
// order (refunding leftovers), archives the execution for α calibration.
func (s *Service) finalize(qb *qosBatch) {
	if qb.finalized {
		return
	}
	s.observe(qb)
	qb.finalized = true
	s.stopInstances(qb)
	if _, ok := s.Credits.OrderOf(qb.id); ok {
		s.Credits.Pay(qb.id)
	}
	if qb.bi.Done() {
		// Archive the (base, actual) pair measured at 50% completion, the
		// evaluation point of Table 4.
		if tc50, ok := qb.bi.TimeAtCompletion(0.5); ok && tc50 > 0 {
			s.Oracle.Calibration.Record(qb.bi.EnvKey, tc50/0.5, qb.bi.CompletedAt)
		}
	}
}
