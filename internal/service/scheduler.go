package service

import (
	"fmt"
	"log"
	"net/http"
	"slices"
	"sort"
	"sync"
	"time"

	"spequlos/internal/cloud"
	"spequlos/internal/core"
	"spequlos/internal/middleware"
)

// DGGateway abstracts the Desktop Grid server the Scheduler monitors. A
// production deployment implements it against a BOINC or XWHEP server's
// status API (or the 3G-Bridge for grid-submitted BoTs); tests and demos
// use a scripted fake, and internal/emul drives a fully simulated DG
// behind the same interface.
type DGGateway interface {
	// Progress returns the server's current view of a batch.
	Progress(batchID string) (middleware.Progress, error)
	// WorkerURL is the endpoint cloud workers connect to.
	WorkerURL() string
}

// BatchProgressGateway is an optional DGGateway extension: one call returns
// the server's view of many batches at once. The Scheduler's monitor loop
// uses it to poll a DG that hosts hundreds of concurrent QoS batches with a
// single aggregated round-trip per tick — without it, each tick costs one
// Progress call per registered batch, the O(batches) polling wall that
// collapses at fleet scale. internal/emul implements it on both sides of
// the wire (POST /progress-batch).
type BatchProgressGateway interface {
	DGGateway
	// ProgressBatch returns the server's view of every named batch, keyed
	// by batch ID.
	ProgressBatch(batchIDs []string) (map[string]middleware.Progress, error)
}

// WorkerStatusGateway is an optional DGGateway extension: gateways that can
// report whether a launched instance's worker currently holds an assignment
// enable the Greedy release policy (§3.5: "Cloud workers that do not have
// tasks assigned stop immediately"). Without it the Scheduler keeps idle
// workers running until the order exhausts or the batch completes.
type WorkerStatusGateway interface {
	DGGateway
	// InstanceBusy reports whether the worker booted from the given cloud
	// instance currently holds an assignment on the DG server.
	InstanceBusy(instanceID string) (bool, error)
}

// SchedulerService is the deployable Scheduler module: it drives the
// monitor loop of Algorithms 1 and 2 against remote Information, Credit and
// Oracle services, launching cloud workers through the provider registry
// (libcloud's role).
//
//	POST /qos        {user, batch_id, env_key, size, credits, provider, image}
//	GET  /qos/{id}   QoS status of a batch
//	POST /step       run one monitor iteration (the daemon also ticks)
//	GET  /instances  list managed cloud instances
//
// One monitor iteration is a phased tick (see tick): poll the DG once, then
// one bulk request per module and step — POST /samples to Information,
// POST /bills and POST /orders/lookup to Credit, POST /plans to the Oracle —
// then tier admission, and last a serial apply loop in registration order for
// what batches share: exhaustion stops, idle release, finalization, launches.
// Step and StepBatch are that one tick, over every batch and over one.
type SchedulerService struct {
	info     *InformationClient
	credits  *CreditClient
	oracle   *OracleClient
	registry *cloud.Registry
	dg       DGGateway

	// TierPolicy, when non-nil, gates cloud-worker launches when supply is
	// contended: each tick, the batches whose plan says start go through one
	// TierPolicy.Admit call (caps, weighted slot reservation, wait-boosted
	// priority) and the denied ones retry on later ticks — the arbitration
	// the in-process scheduler (internal/core) runs, on the same inputs.
	TierPolicy *core.TierPolicy

	// Now is the clock used for billing; overridable in tests.
	Now func() time.Time

	mu sync.Mutex
	// batches resolves every batch ever registered, finalized ones included:
	// Status answers for them too.
	batches map[string]*schedBatch
	// order holds the batches not yet finalized, in registration order. A
	// whole-fleet tick drops a batch from it on the first claim after its
	// finalization, so a tick costs nothing for batches that are done.
	order []*schedBatch
}

type schedBatch struct {
	ID        string
	User      string
	EnvKey    string
	Size      int
	Tier      core.Tier
	Provider  string
	Image     string
	Started   bool
	Exhausted bool
	Finalized bool
	StartedAt time.Time
	// TriggeredAt is when cloud support started, in seconds since
	// registration; -1 until the trigger fires.
	TriggeredAt float64
	// ReleaseIdle is the Oracle's release policy for this batch: stop
	// booted workers that obtained no work (Greedy sizing).
	ReleaseIdle bool
	// EligibleSince is the tick the Oracle's plan first said start; tier
	// admission boosts longer waits. Zero until then.
	EligibleSince time.Time
	// stepping marks the batch as claimed by a tick in progress: the daemon
	// ticker and external POST /step clients may race, and a double step
	// must not double-bill or double-launch.
	stepping bool

	instances []managedInstance
}

type managedInstance struct {
	Info     cloud.InstanceInfo
	LastBill time.Time
}

// QoSRequest registers a batch for QoS support (registerQoS + orderQoS of
// Fig 3 in one call).
type QoSRequest struct {
	User    string  `json:"user"`
	BatchID string  `json:"batch_id"`
	EnvKey  string  `json:"env_key"`
	Size    int     `json:"size"`
	Credits float64 `json:"credits"`
	// Tier is the batch's service class (enterprise, premium or free; empty
	// means untiered and is treated as free when a tier policy is active).
	Tier     string `json:"tier,omitempty"`
	Provider string `json:"provider"`
	Image    string `json:"image"`
}

// QoSStatus reports the Scheduler's view of a batch.
type QoSStatus struct {
	BatchID string `json:"batch_id"`
	// Tier is the batch's service class (empty for untiered batches).
	Tier      string `json:"tier,omitempty"`
	Started   bool   `json:"started"`
	Exhausted bool   `json:"exhausted"`
	Finalized bool   `json:"finalized"`
	// TriggeredAt is when cloud support started, in seconds since
	// registration (-1 if it never did).
	TriggeredAt float64              `json:"triggered_at"`
	Instances   []cloud.InstanceInfo `json:"instances"`
}

// NewSchedulerService wires the Scheduler to its collaborators.
func NewSchedulerService(info *InformationClient, credits *CreditClient, oracle *OracleClient,
	registry *cloud.Registry, dg DGGateway) *SchedulerService {
	return &SchedulerService{
		info: info, credits: credits, oracle: oracle, registry: registry, dg: dg,
		Now:     time.Now,
		batches: map[string]*schedBatch{},
	}
}

// ServeHTTP implements http.Handler.
func (s *SchedulerService) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/qos":
		var req QoSRequest
		if err := readJSON(r, &req); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		if _, err := core.ParseTier(req.Tier); err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("scheduler: %w", err))
			return
		}
		// Behind an auth gate (see auth.go) the request runs as the key's
		// identity: an absent body tier/user inherits the credential's, and a
		// body tier outranking the credential's is rejected — a free key
		// cannot order enterprise service.
		if kt := r.Header.Get(AuthTierHeader); kt != "" {
			keyTier, err := core.ParseTier(kt)
			if err == nil {
				reqTier := core.Tier(req.Tier)
				if req.Tier == "" {
					req.Tier = string(keyTier.OrFree())
				} else if reqTier.Rank() > keyTier.Rank() {
					writeErr(w, http.StatusForbidden, fmt.Errorf(
						"scheduler: tier %s exceeds the API key's tier %s", reqTier, keyTier.OrFree()))
					return
				}
			}
			if req.User == "" {
				req.User = r.Header.Get(AuthUserHeader)
			}
		}
		if err := s.RegisterQoS(req); err != nil {
			writeErr(w, http.StatusConflict, err)
			return
		}
		writeJSON(w, http.StatusCreated, map[string]string{"batch_id": req.BatchID})

	case r.Method == http.MethodPost && r.URL.Path == "/step":
		if err := s.Step(); err != nil {
			writeErr(w, http.StatusBadGateway, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})

	case r.Method == http.MethodGet && pathTail(r.URL.Path, "/qos/") != "":
		id := pathTail(r.URL.Path, "/qos/")
		st, err := s.Status(id)
		if err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, st)

	case r.Method == http.MethodGet && r.URL.Path == "/instances":
		writeJSON(w, http.StatusOK, s.Instances())

	default:
		writeErr(w, http.StatusNotFound, fmt.Errorf("no route %s %s", r.Method, r.URL.Path))
	}
}

// RegisterQoS places the credit order and registers the batch with the
// Information service. A rejected registration mutates nothing: the order
// comes first (the step most likely to refuse), and is paid back in full if
// Information then refuses the batch, so the same request can be retried.
func (s *SchedulerService) RegisterQoS(req QoSRequest) error {
	if req.BatchID == "" || req.Size <= 0 {
		return fmt.Errorf("scheduler: batch_id and positive size required")
	}
	tier, err := core.ParseTier(req.Tier)
	if err != nil {
		return fmt.Errorf("scheduler: %w", err)
	}
	s.mu.Lock()
	if _, ok := s.batches[req.BatchID]; ok {
		s.mu.Unlock()
		return fmt.Errorf("scheduler: batch %q already registered", req.BatchID)
	}
	s.mu.Unlock()
	if req.Credits > 0 {
		if err := s.credits.Order(req.User, req.BatchID, req.Credits); err != nil {
			return err
		}
	}
	if err := s.info.Track(TrackRequest{
		BatchID: req.BatchID, EnvKey: req.EnvKey, Size: req.Size,
	}); err != nil {
		if req.Credits > 0 {
			if _, perr := s.credits.Pay(req.BatchID); perr != nil {
				return fmt.Errorf("%w (order not paid back: %v)", err, perr)
			}
		}
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	qb := &schedBatch{
		ID: req.BatchID, User: req.User, EnvKey: req.EnvKey, Size: req.Size,
		Tier: tier, Provider: req.Provider, Image: req.Image, StartedAt: s.Now(),
		TriggeredAt: -1,
	}
	s.batches[req.BatchID] = qb
	s.order = append(s.order, qb)
	return nil
}

// Status returns the Scheduler's view of a batch.
func (s *SchedulerService) Status(batchID string) (QoSStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	qb, ok := s.batches[batchID]
	if !ok {
		return QoSStatus{}, fmt.Errorf("scheduler: batch %q not registered", batchID)
	}
	st := QoSStatus{BatchID: qb.ID, Tier: string(qb.Tier), Started: qb.Started,
		Exhausted: qb.Exhausted, Finalized: qb.Finalized, TriggeredAt: qb.TriggeredAt}
	for _, mi := range qb.instances {
		st.Instances = append(st.Instances, mi.Info)
	}
	return st, nil
}

// Instances lists every managed cloud instance.
func (s *SchedulerService) Instances() []cloud.InstanceInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []cloud.InstanceInfo
	for _, qb := range s.batches {
		for _, mi := range qb.instances {
			out = append(out, mi.Info)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Step runs one monitor iteration over every registered batch (the body of
// Algorithms 1 and 2) as one phased tick; see tick.
func (s *SchedulerService) Step() error { return s.tick(nil) }

// StepBatch runs one monitor iteration for a single batch: the same tick on
// a one-element list. The emulation's event-driven finalization uses it so
// one batch's completion settles its own billing at the completion instant
// without advancing the other batches' monitor state between ticks (the
// in-process simulator finalizes exactly one batch per completion event).
func (s *SchedulerService) StepBatch(id string) error { return s.tick([]string{id}) }

// tickBatch is one claimed batch's way through a tick.
type tickBatch struct {
	qb       *schedBatch
	progress middleware.Progress
	elapsed  float64 // seconds since registration, the sample's T
	// err is the batch's first failure. A failed batch sits the rest of the
	// tick out — exactly what returning from a per-batch step did — and its
	// neighbours carry on.
	err error
	// plan is the Oracle's decision, nil unless one was asked for.
	plan *PlanReply
}

// tick is the monitor iteration over the named batches (nil: every batch not
// yet finalized), in registration order. Its cost in module round trips does
// not depend on how many batches there are:
//
//  1. claim the batches and poll the DG once (BatchProgressGateway);
//  2. one POST /samples to Information;
//  3. one POST /bills to Credit: each batch's usage since its instances'
//     last bill, completing batches included;
//  4. one POST /orders/lookup to Credit for the batches not yet started;
//  5. one POST /plans to the Oracle (which makes one POST /statuses to
//     Information) for those of them that have credits left;
//  6. tier admission (admit): one TierPolicy.Admit call over the plans that
//     say start, against the fleets held as the apply loop begins;
//  7. the apply loop, serial and in registration order: stop the fleet of an
//     exhausted order, release idle workers (Greedy), finalize completed
//     batches (stop, pay, archive the calibration: three calls each), and
//     launch for an admitted plan.
//
// These are the phases of core.Service.tick — plan, admit, apply — with the
// same Oracle.Plan and the same TierPolicy.Admit behind them, so the two
// schedulers decide alike by construction. Steps 2 to 5 read and write only
// state that belongs to one batch — its samples, its own order — so running
// them for every batch before any batch is applied changes no decision. What
// batches share (the cloud driver and its instance ids) is touched in step 7
// alone.
//
// No lock is held across a call to a module, the DG or a cloud driver: the
// claim keeps other ticks off a batch, so its state is read freely here and
// written under s.mu only for the benefit of Status and Instances.
func (s *SchedulerService) tick(ids []string) error {
	batches := s.claim(ids)
	if len(batches) == 0 {
		return nil
	}
	defer s.unclaim(batches)
	if err := s.pollDG(batches); err != nil {
		return err
	}
	now := s.Now()
	s.sendSamples(batches, now)
	s.sendBills(batches, now)
	s.fetchPlans(batches)
	s.admit(batches, now)
	for _, tb := range batches {
		if tb.err == nil {
			tb.err = s.apply(tb, now)
		}
	}
	for _, tb := range batches {
		if tb.err != nil {
			return tb.err
		}
	}
	return nil
}

// claim marks the named batches (nil: every live batch) as being stepped and
// returns them. Concurrent ticks (daemon ticker plus external POST /step
// clients) must not double-bill or double-launch; a batch another tick holds
// is skipped, not an error — the other tick is doing the same work.
func (s *SchedulerService) claim(ids []string) []*tickBatch {
	s.mu.Lock()
	defer s.mu.Unlock()
	var named []*schedBatch
	if ids == nil {
		s.order = slices.DeleteFunc(s.order, func(qb *schedBatch) bool { return qb.Finalized })
		named = s.order
	}
	for _, id := range ids {
		if qb := s.batches[id]; qb != nil {
			named = append(named, qb)
		}
	}
	var out []*tickBatch
	for _, qb := range named {
		if !qb.Finalized && !qb.stepping {
			qb.stepping = true
			out = append(out, &tickBatch{qb: qb})
		}
	}
	return out
}

func (s *SchedulerService) unclaim(batches []*tickBatch) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, tb := range batches {
		tb.qb.stepping = false
	}
}

// pollDG fetches every claimed batch's progress: one aggregated query against
// a BatchProgressGateway, one Progress call per batch otherwise (and for any
// batch the aggregated reply left out).
func (s *SchedulerService) pollDG(batches []*tickBatch) error {
	var polled map[string]middleware.Progress
	if bg, ok := s.dg.(BatchProgressGateway); ok {
		ids := make([]string, len(batches))
		for i, tb := range batches {
			ids[i] = tb.qb.ID
		}
		p, err := bg.ProgressBatch(ids)
		if err != nil {
			// Transient gateway errors retry next tick; no batch consumed a
			// partial view.
			return fmt.Errorf("scheduler: DG batch progress: %w", err)
		}
		polled = p
	}
	for _, tb := range batches {
		p, ok := polled[tb.qb.ID]
		if !ok {
			var err error
			if p, err = s.dg.Progress(tb.qb.ID); err != nil {
				tb.err = fmt.Errorf("scheduler: DG progress for %q: %w", tb.qb.ID, err)
			}
		}
		tb.progress = p
	}
	return nil
}

// sendSamples pushes every batch's progress to Information.
func (s *SchedulerService) sendSamples(batches []*tickBatch, now time.Time) {
	var items []BatchSample
	var of []*tickBatch
	for _, tb := range batches {
		if tb.err != nil {
			continue
		}
		p := tb.progress
		tb.elapsed = now.Sub(tb.qb.StartedAt).Seconds()
		items = append(items, BatchSample{BatchID: tb.qb.ID, Sample: core.Sample{
			T: tb.elapsed, Completed: p.Completed, Assigned: p.EverAssigned,
			Queued: p.Queued, Running: p.Running, Workers: p.Workers,
		}})
		of = append(of, tb)
	}
	for i, res := range s.info.AddSamples(items) {
		of[i].err = itemErr(res.Error)
	}
}

// sendBills charges the wall-clock usage of every live instance since its
// last bill (Algorithm 2), a completing batch's final usage included. An
// instance's LastBill advances only once Credit reports its charge applied:
// a bill that failed, or that was not reached because the order ran dry
// first, leaves the usage window open.
func (s *SchedulerService) sendBills(batches []*tickBatch, now time.Time) {
	var items []BillItem
	var of []*tickBatch
	var charged [][]int // per item: the instance index behind each charge
	for _, tb := range batches {
		if tb.err != nil {
			continue
		}
		var credits []float64
		var idx []int
		for i := range tb.qb.instances {
			mi := &tb.qb.instances[i]
			if mi.Info.State == cloud.StateTerminated {
				continue
			}
			if sec := now.Sub(mi.LastBill).Seconds(); sec > 0 {
				credits = append(credits, sec/3600*core.CreditsPerCPUHour)
				idx = append(idx, i)
			}
		}
		if len(credits) > 0 {
			items = append(items, BillItem{BatchID: tb.qb.ID, Credits: credits})
			of, charged = append(of, tb), append(charged, idx)
		}
	}
	results := s.credits.Bills(items)
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, res := range results {
		qb := of[k].qb
		for _, i := range charged[k][:min(res.Applied, len(charged[k]))] {
			qb.instances[i].LastBill = now
		}
		qb.Exhausted = qb.Exhausted || res.Exhausted
		of[k].err = itemErr(res.Error)
	}
}

// fetchPlans asks the Oracle whether to start cloud workers (Algorithm 1)
// for every batch that is still running, has not started them yet, and has
// an open order with credits left.
func (s *SchedulerService) fetchPlans(batches []*tickBatch) {
	var ids []string
	var of []*tickBatch
	for _, tb := range batches {
		if tb.err == nil && !tb.progress.Done() && !tb.qb.Exhausted && !tb.qb.Started {
			ids, of = append(ids, tb.qb.ID), append(of, tb)
		}
	}
	var reqs []PlanRequest
	var asked []*tickBatch
	for i, o := range s.credits.Orders(ids) {
		if of[i].err = itemErr(o.Error); of[i].err == nil && o.HasCredits {
			reqs = append(reqs, PlanRequest{BatchID: o.BatchID,
				CreditCPUHours: o.Order.Remaining() / core.CreditsPerCPUHour})
			asked = append(asked, of[i])
		}
	}
	for i, res := range s.oracle.Plans(reqs) {
		if asked[i].err = itemErr(res.Error); asked[i].err == nil {
			asked[i].plan = &res.Plan
		}
	}
}

// admit runs tier admission over this tick's would-start batches, as
// core.Service.admit does: every batch whose plan says start is a candidate,
// waiting since the tick it first was one, and the fleets counted as held are
// those live now, before the apply loop stops or starts any — a slot freed
// this tick is granted on the next. A denied batch loses its plan and asks
// again next tick. Without a tier policy every plan proceeds.
func (s *SchedulerService) admit(batches []*tickBatch, now time.Time) {
	if s.TierPolicy == nil {
		return
	}
	var cands []core.TierCandidate
	for _, tb := range batches {
		if tb.plan == nil || !tb.plan.Start {
			continue
		}
		if tb.qb.EligibleSince.IsZero() {
			tb.qb.EligibleSince = now
		}
		// Scores depend on the wait alone, so this tick is time zero.
		cands = append(cands, core.TierCandidate{BatchID: tb.qb.ID, Tier: tb.qb.Tier,
			Since: -now.Sub(tb.qb.EligibleSince).Seconds()})
	}
	if len(cands) == 0 {
		return
	}
	active := map[core.Tier]int{}
	s.mu.Lock()
	for _, qb := range s.order {
		if !qb.Finalized && len(liveInstances(qb)) > 0 {
			active[qb.Tier.OrFree()]++
		}
	}
	s.mu.Unlock()
	admitted := s.TierPolicy.Admit(0, active, cands)
	for _, tb := range batches {
		if tb.plan != nil && !admitted[tb.qb.ID] {
			tb.plan = nil
		}
	}
}

// apply is the part of one batch's iteration that touches state batches
// share. It runs for one batch at a time, in registration order.
func (s *SchedulerService) apply(tb *tickBatch, now time.Time) error {
	qb := tb.qb
	switch {
	case tb.progress.Done():
		return s.finalize(qb, tb.elapsed)
	case qb.Exhausted:
		// The order ran dry: stop everything.
		s.stopAll(qb)
		return nil
	}
	if err := s.releaseIdleInstances(qb); err != nil {
		return err
	}
	if tb.plan == nil || !tb.plan.Start {
		return nil // nothing to start, or tier admission denied the slot: retry on a later tick
	}
	driver, err := s.registry.Get(qb.Provider)
	if err != nil {
		return err
	}
	// A plan to start n is met by n live instances. A launch that failed on
	// an earlier tick left the ones before it running and billed and the
	// batch not Started, so the Oracle is asked again: launch the shortfall.
	for n := tb.plan.Workers - len(liveInstances(qb)); n > 0; n-- {
		info, err := driver.Launch(cloud.LaunchRequest{
			Image: qb.Image, BatchID: qb.ID, DGServer: s.dg.WorkerURL(),
		})
		if err != nil {
			return err
		}
		s.mu.Lock()
		qb.instances = append(qb.instances, managedInstance{Info: info, LastBill: now})
		s.mu.Unlock()
	}
	s.mu.Lock()
	qb.Started = true
	qb.TriggeredAt = tb.elapsed
	qb.ReleaseIdle = tb.plan.ReleaseIdle
	s.mu.Unlock()
	return nil
}

// liveInstances lists the ids of a claimed batch's instances that are not
// terminated.
func liveInstances(qb *schedBatch) []string {
	var ids []string
	for i := range qb.instances {
		if qb.instances[i].Info.State != cloud.StateTerminated {
			ids = append(ids, qb.instances[i].Info.ID)
		}
	}
	return ids
}

// releaseIdleInstances implements the Greedy release policy: booted workers
// that hold no assignment are stopped, so the credits they would burn stay
// in the order (§3.5). Their usage up to now was charged by this tick's
// bills. It requires a gateway that can report worker status; otherwise it
// is a no-op.
func (s *SchedulerService) releaseIdleInstances(qb *schedBatch) error {
	gw, ok := s.dg.(WorkerStatusGateway)
	if !ok || !qb.ReleaseIdle {
		return nil
	}
	driver, err := s.registry.Get(qb.Provider)
	if err != nil {
		return err
	}
	for _, id := range liveInstances(qb) {
		desc, err := driver.Describe(id)
		if err != nil || desc.State != cloud.StateRunning {
			continue // still booting, or gone
		}
		if busy, err := gw.InstanceBusy(id); err != nil || busy {
			continue
		}
		if err := driver.Terminate(id); err == nil {
			s.markTerminated(qb, id)
		}
	}
	return nil
}

func (s *SchedulerService) markTerminated(qb *schedBatch, id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range qb.instances {
		if qb.instances[i].Info.ID == id {
			qb.instances[i].Info.State = cloud.StateTerminated
		}
	}
}

// stopAll terminates every live instance of a batch. An instance the driver
// fails to terminate stays live and is tried again next tick.
func (s *SchedulerService) stopAll(qb *schedBatch) {
	driver, err := s.registry.Get(qb.Provider)
	if err != nil {
		return // an unknown provider launched nothing there is to stop
	}
	for _, id := range liveInstances(qb) {
		if err := driver.Terminate(id); err == nil {
			s.markTerminated(qb, id)
		}
	}
}

// finalize settles a completed batch, whose final usage this tick's bills
// already charged: instance shutdown, payment and calibration archiving.
func (s *SchedulerService) finalize(qb *schedBatch, elapsed float64) error {
	s.stopAll(qb)
	if _, err := s.credits.Pay(qb.ID); err != nil {
		return err
	}
	if st, err := s.info.Status(qb.ID); err == nil && st.TC50 > 0 {
		if err := s.oracle.RecordCalibration(qb.EnvKey, st.TC50/0.5, elapsed); err != nil {
			return err
		}
	}
	s.mu.Lock()
	qb.Finalized = true
	s.mu.Unlock()
	return nil
}

// Run ticks the monitor loop every period until stop is closed (the daemon
// mode of cmd/spequlosd). A failed tick is logged and the next one retries:
// a DG gateway or sibling module that is down must not stop the loop, and
// must not stay invisible to the operator either.
func (s *SchedulerService) Run(period time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			if err := s.Step(); err != nil {
				log.Printf("scheduler: tick: %v", err)
			}
		}
	}
}
