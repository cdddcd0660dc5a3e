package core

import (
	"errors"
	"fmt"
	"sync"

	"spequlos/internal/cloud"
	"spequlos/internal/middleware"
)

// Instance is one cloud worker the Scheduler manages for a batch.
type Instance struct {
	// Info is the provider's descriptor as of the launch (zero for a
	// simulated worker); a successful stop marks it terminated.
	Info cloud.InstanceInfo
	// Sim is the simulated worker behind the instance; nil over HTTP.
	Sim *cloud.Instance
	// LastBill is when the instance's usage was last charged. It advances
	// only once Credit reports the charge applied: a bill that failed, or was
	// not reached because the order ran dry first, leaves the window open.
	LastBill float64
}

// Live reports whether the instance has not been stopped.
func (i *Instance) Live() bool { return i.Info.State != cloud.StateTerminated }

// Step is what the ports answered for one batch during one tick.
type Step struct {
	// Err is the batch's first failure this tick. A failed batch sits the
	// rest of the tick out and its neighbours carry on.
	Err      error
	Progress middleware.Progress // the DG server's view of the batch
	// Charges are the credits to bill, one per live instance with usage
	// since its last bill, in launch order. Applied counts the ones Credit
	// applied, from the first and including the one that ran the order dry,
	// if one did (Dry).
	Charges []float64
	Applied int
	Dry     bool
	// Funded reports an open order with credits left, Remaining how many.
	Funded    bool
	Remaining float64
	Plan      Plan // the Oracle's decision; zero unless one was asked for
}

// Batch is the Scheduler's record of one QoS batch. Times are seconds on the
// deployment's time base: virtual time in a simulation, Unix time over HTTP.
type Batch struct {
	ID, EnvKey   string
	Tier         Tier
	RegisteredAt float64
	// Started means the Oracle's plan to start cloud workers has been met,
	// at TriggeredAt (-1 until then), under the release policy ReleaseIdle:
	// stop booted workers that obtained no work. EligibleSince is the tick
	// the plan first said start (-1 until then); tier admission boosts longer
	// waits. Ordered records that a credit order was placed for the batch:
	// finalization pays only an order that exists.
	TriggeredAt, EligibleSince float64
	Ordered, Started           bool
	ReleaseIdle                bool
	Exhausted, Finalized       bool
	// dirty means task events touched the batch since its last step; armed
	// means tier admission denied its plan, so it is re-examined every tick.
	// (They sit with Finalized and Instances on one cache line: Due reads
	// nothing else of a batch it skips.)
	dirty, armed bool
	Instances    []Instance
	// wait is the Wait of the batch's last plan that succeeded: while the
	// DG's counts are below it the trigger cannot fire, so Run asks neither
	// Credit nor the Oracle about the batch.
	wait Wait
	// The simulated DG server hosting the batch and its monitored history,
	// which core.Service's ports answer from; nil over HTTP.
	srv middleware.Server
	bi  *BatchInfo

	Step

	// Provider and Image name the cloud offer the batch's workers are
	// launched from (a simulated cloud has one).
	Provider, Image string
}

// NewBatch returns the record of a batch registered at now.
func NewBatch(id, envKey string, tier Tier, now float64) *Batch {
	return &Batch{ID: id, EnvKey: envKey, Tier: tier, RegisteredAt: now,
		TriggeredAt: -1, EligibleSince: -1, dirty: true}
}

// live counts the batch's instances not yet stopped.
func (b *Batch) live() int {
	n := 0
	for i := range b.Instances {
		if b.Instances[i].Live() {
			n++
		}
	}
	return n
}

// Ports are the module calls that differ between the Scheduler's two
// deployments: core.Service answers them from the simulation's modules in
// process, service.SchedulerService with one request each (a bulk one for a
// method over a list). A method over a list answers per batch, in its Step,
// Err included, so a failure sidelines that batch and nobody else. Ports
// decide nothing and build nothing: who is asked what, the samples handed
// on, and what follows from the answers are Monitor.RegisterQoS's and
// Monitor.Run's.
type Ports interface {
	// Order places the batch's credit order: credits from the user's account.
	Order(b *Batch, user string, credits float64) error
	// Track has Information track the batch, of size tasks, as submitted at
	// its RegisteredAt.
	Track(b *Batch, size int) error
	// Progress polls the DG server: Step.Progress.
	Progress(bs []*Batch)
	// Sample hands Information ss[i] as the sample of bs[i].
	Sample(bs []*Batch, ss []Sample)
	// Bill charges each batch's order with its Charges, in order, until one
	// fails or runs the order dry: Step.Applied and Dry.
	Bill(bs []*Batch)
	// Orders looks each batch's order up: Step.Funded and Remaining.
	Orders(bs []*Batch)
	// Plan asks the Oracle whether to start cloud workers for each batch,
	// given the credits Remaining: Step.Plan.
	Plan(bs []*Batch)
	// Idle reports that the instance's worker has booted and holds no work.
	Idle(b *Batch, inst *Instance) bool
	// Stop terminates an instance; Launch starts one worker for the batch.
	Stop(b *Batch, inst *Instance) error
	Launch(b *Batch) (Instance, error)
	// Pay closes each batch's order, refunding what is left of it; paying a
	// closed order is not an error.
	Pay(bs []*Batch)
	// Archive records each completed batch's execution for α calibration.
	Archive(bs []*Batch)
}

// Monitor is the Scheduler's batch registry: it holds every batch ever
// registered, runs the monitor iteration over the live ones (Algorithms 1
// and 2 of §3.6), and reports each batch's usage. Both deployments step it
// through Step alone and read a batch back through Usage alone; in a
// simulation a Driver decides when, for both.
type Monitor struct {
	Ports Ports
	// CountDriven says that a Driver marks batches dirty on their task
	// events and that the trigger reads nothing else (CountDrivenTrigger):
	// Due then skips the batches nothing happened to. NewDriver sets it.
	CountDriven bool

	// Mu guards what a tick writes and another goroutine may read: Batches,
	// Order, the records' lifecycle fields and instance lists, and stepping.
	// Run takes it for each write and never across a port call, so readers
	// are served meanwhile.
	Mu sync.Mutex
	// stepping is set while a Step runs, the guard that lets one tick run at
	// a time; work, Step's Scratch, thus has one user.
	stepping bool
	work     Scratch
	// Batches resolves every batch ever registered, finalized ones included.
	// RegisterQoS is its only writer.
	Batches map[string]*Batch
	// Order holds the batches not yet finalized, in registration order (map
	// order would make multi-batch runs non-reproducible for a given seed);
	// RegisterQoS appends a batch, and Due drops it on the first call after
	// its finalization, so a tick costs nothing for batches that are done.
	Order []*Batch
}

// ErrMalformed marks a request refused for its content alone: an empty user
// or batch ID, a size ≤ 0, a negative or non-finite amount. HTTP answers 400.
var ErrMalformed = errors.New("malformed request")

// RegisterQoS starts QoS support for a batch, the registerQoS and orderQoS of
// Fig 3, for both deployments. It refuses a malformed request or a known ID;
// then, when credits > 0, orders them for the user, and has Information track
// the batch, submitted at b.RegisteredAt. The order comes first, the step most
// likely to refuse, and is paid back if Information refuses, so a refused
// request changes nothing (but an order whose payback failed, which the error
// names) and can be retried. Mu is not held across a port call.
func (m *Monitor) RegisterQoS(b *Batch, user string, size int, credits float64) error {
	if b.ID == "" || size <= 0 {
		return fmt.Errorf("core: %w: batch ID and a positive size required", ErrMalformed)
	}
	m.Mu.Lock()
	known := m.Batches[b.ID] != nil
	m.Mu.Unlock()
	if known {
		return fmt.Errorf("core: batch %q already registered", b.ID)
	}
	if b.Ordered = credits > 0; b.Ordered {
		if err := m.Ports.Order(b, user, credits); err != nil {
			return err
		}
	}
	if err := m.Ports.Track(b, size); err != nil {
		if b.Ordered {
			if m.Ports.Pay([]*Batch{b}); b.Err != nil {
				return fmt.Errorf("%w (order not paid back: %v)", err, b.Err)
			}
		}
		return err
	}
	// Information tracks an ID once, so no other registration of it got here.
	m.Mu.Lock()
	defer m.Mu.Unlock()
	if m.Batches == nil {
		m.Batches = map[string]*Batch{}
	}
	m.Batches[b.ID] = b
	m.Order = append(m.Order, b)
	return nil
}

// Due drops the batches finalized since the last call from Order and appends
// to dst the ones a whole-fleet tick steps: all of them, or with CountDriven
// only those with task activity since their last step, live instances to
// bill, or a start tier admission deferred. Call with Mu held.
func (m *Monitor) Due(dst []*Batch) []*Batch {
	n := 0
	for i, b := range m.Order {
		if b.Finalized {
			continue
		}
		if n != i { // nothing is written, the usual case, until one was dropped
			m.Order[n] = b
		}
		n++
		if !m.CountDriven || b.dirty || b.armed || b.live() > 0 {
			dst = append(dst, b)
		}
	}
	m.Order = m.Order[:n]
	return dst
}

// Step runs one tick at now: Run over the due batches — the whole fleet's
// (Due), or only the live batch named only — with the Monitor's own Scratch.
// One tick runs at a time: a Step that finds one running returns nil and does
// nothing, leaving its batches to the next tick, so no two ticks bill one
// window or launch one plan. A Step that finds nothing due returns at once.
func (m *Monitor) Step(now float64, tiers *TierPolicy, only string) error {
	m.Mu.Lock()
	if m.stepping {
		m.Mu.Unlock()
		return nil
	}
	w := &m.work
	if w.due = w.due[:0]; only == "" {
		w.due = m.Due(w.due)
	} else if b := m.Batches[only]; b != nil && !b.Finalized {
		w.due = append(w.due, b)
	}
	m.stepping = len(w.due) > 0
	m.Mu.Unlock()
	if len(w.due) == 0 {
		return nil
	}
	defer func() {
		m.Mu.Lock()
		m.stepping = false
		m.Mu.Unlock()
	}()
	return m.Run(now, tiers, w.due, w)
}

// CloudUsage summarizes the cloud resources consumed for one batch.
type CloudUsage struct {
	InstancesStarted int
	CPUSeconds       float64
	CreditsBilled    float64
	TriggeredAt      float64 // -1 if cloud support never started
}

// ErrUnknownBatch marks a read of a batch that never registered.
var ErrUnknownBatch = errors.New("batch not registered")

// Usage is the one read of a batch's record, at now: the instances started,
// the trigger instant on the deployment's time base, the CPU seconds of its
// simulated instances (none over HTTP), and whether it has a credit order.
// The bill is the Credit module's to add.
func (m *Monitor) Usage(id string, now float64) (u CloudUsage, ordered bool, err error) {
	m.Mu.Lock()
	defer m.Mu.Unlock()
	b := m.Batches[id]
	if b == nil {
		return u, false, fmt.Errorf("core: %w: %q", ErrUnknownBatch, id)
	}
	u = CloudUsage{InstancesStarted: len(b.Instances), TriggeredAt: b.TriggeredAt}
	for i := range b.Instances {
		if sim := b.Instances[i].Sim; sim != nil {
			u.CPUSeconds += sim.CPUSeconds(now)
		}
	}
	return u, b.Ordered, nil
}

// Scratch is one tick's working memory; the zero value is ready. Reused by a
// caller that ticks from one goroutine, it keeps a tick allocation-free.
type Scratch struct {
	due     []*Batch // Step's due list
	sel     []*Batch
	samples []Sample // the observed batches' samples, in their order
	fin     []*Batch // the completed batches whose fleet this tick stopped
	cands   []TierCandidate
}

// pick selects the batches that have not failed this tick and that keep
// accepts, in order. The result is valid until the next pick.
func (w *Scratch) pick(due []*Batch, keep func(*Batch) bool) []*Batch {
	w.sel = w.sel[:0]
	for _, b := range due {
		if b.Err == nil && keep(b) {
			w.sel = append(w.sel, b)
		}
	}
	return w.sel
}

// Run is the monitor iteration over the given batches, none finalized, in
// registration order:
//
//  1. observe — poll the DG, and hand Information each answered batch's
//     progress as its sample, at now − RegisteredAt;
//  2. bill — charge each live instance's usage since its last bill
//     (Algorithm 2), a completing batch's final usage included;
//  3. plan — for a batch still running without cloud support, look its order
//     up and, if it has credits left, ask the Oracle (Algorithm 1); a batch
//     whose DG progress is still below the Wait of its last plan that
//     succeeded is not asked about, since its trigger cannot fire there
//     (Trigger.Floor). This is the one place that decides when to skip the
//     Oracle; a failed plan leaves the Wait as it was, and the zero Wait
//     (no plan yet, or one that waits for nothing) asks every tick;
//  4. admit — with a tier policy, one TierPolicy.Admit call over the plans
//     that say start, against the fleets held before any is stopped or
//     started: a slot freed this tick is granted on the next, and a denied
//     batch asks again then;
//  5. apply, batch by batch: stop the fleet of a completed batch or of an
//     exhausted order, or release idle workers (Greedy) and launch what an
//     admitted plan is short of;
//  6. finalize the completed batches whose fleet stopped: one Pay over those
//     with an order (refunding the rest), then one Archive. A batch is
//     finalized once its stop, Pay and Archive have all succeeded; a retry
//     repeats nothing — stopped instances are skipped, Pay is idempotent, and
//     the archive comes last.
//
// Steps 1 to 3 touch only what belongs to one batch (its samples, its order),
// so running each for every batch before the next changes no decision; what
// batches share — cloud supply, the DG's workers — is touched in step 5
// alone. Nothing in step 5 reads what step 6 writes (closed orders, refunds,
// the calibration archive), so finalizing after every batch's apply step
// decides what finalizing each batch in its turn did. A batch a port failed
// for sits the rest of the tick out and is retried on the next; Run returns
// the first such failure.
func (m *Monitor) Run(now float64, tiers *TierPolicy, due []*Batch, w *Scratch) error {
	p := m.Ports
	for _, b := range due {
		b.Step = Step{Charges: b.Charges[:0]}
		b.dirty, b.armed = false, false
	}
	p.Progress(due)
	observed := w.pick(due, func(*Batch) bool { return true })
	w.samples = w.samples[:0]
	for _, b := range observed {
		pr := &b.Progress
		w.samples = append(w.samples, Sample{T: now - b.RegisteredAt, Completed: pr.Completed,
			Assigned: pr.EverAssigned, Queued: pr.Queued, Running: pr.Running, Workers: pr.Workers})
	}
	p.Sample(observed, w.samples)

	unbilled := func(inst *Instance) bool { return inst.Live() && now > inst.LastBill }
	bills := w.pick(due, func(b *Batch) bool {
		for i := range b.Instances {
			if inst := &b.Instances[i]; unbilled(inst) {
				b.Charges = append(b.Charges, (now-inst.LastBill)/3600*CreditsPerCPUHour)
			}
		}
		return len(b.Charges) > 0
	})
	p.Bill(bills)
	m.Mu.Lock()
	for _, b := range bills {
		for i, n := 0, b.Applied; i < len(b.Instances) && n > 0; i++ {
			if inst := &b.Instances[i]; unbilled(inst) {
				inst.LastBill = now
				n--
			}
		}
		b.Exhausted = b.Exhausted || b.Dry
	}
	m.Mu.Unlock()

	p.Orders(w.pick(due, func(b *Batch) bool {
		return !b.Progress.Done() && !b.Exhausted && !b.Started &&
			!b.wait.below(b.Progress.Completed, b.Progress.EverAssigned)
	}))
	planned := w.pick(due, func(b *Batch) bool {
		// An order with credits left is an order: one placed with Credit
		// directly, behind the Scheduler's back, is paid like any other.
		b.Ordered = b.Ordered || b.Funded
		return b.Funded
	})
	p.Plan(planned)
	for _, b := range planned {
		if b.Err == nil {
			b.wait = b.Plan.Wait
		}
	}

	// A batch a failed launch left with part of its fleet holds its slot
	// already: only the plans that would open a fleet are up for admission.
	asking := w.pick(due, func(b *Batch) bool { return b.Plan.Start && b.live() == 0 })
	if tiers != nil && len(asking) > 0 {
		w.cands = w.cands[:0]
		for _, b := range asking {
			if b.EligibleSince < 0 {
				b.EligibleSince = now
			}
			w.cands = append(w.cands, TierCandidate{BatchID: b.ID, Tier: b.Tier, Since: b.EligibleSince})
		}
		active := map[Tier]int{}
		m.Mu.Lock()
		for _, b := range m.Order {
			if !b.Finalized && b.live() > 0 {
				active[b.Tier.OrFree()]++
			}
		}
		m.Mu.Unlock()
		admitted := tiers.Admit(now, active, w.cands)
		for _, b := range asking {
			if !admitted[b.ID] {
				b.Plan, b.armed = Plan{}, true
			}
		}
	}

	w.fin = w.fin[:0]
	for _, b := range due {
		switch {
		case b.Err != nil || b.Finalized:
			// Failed, or finalized by an earlier batch's side effects.
		case b.Progress.Done():
			if m.stop(b, false); b.Err == nil {
				w.fin = append(w.fin, b)
			}
		case b.Exhausted:
			m.stop(b, false)
		default:
			if b.ReleaseIdle {
				m.stop(b, true)
			}
			if b.Err == nil && b.Plan.Start {
				m.launch(now, b)
			}
		}
	}

	p.Pay(w.pick(w.fin, func(b *Batch) bool { return b.Ordered }))
	p.Archive(w.pick(w.fin, func(*Batch) bool { return true }))
	m.Mu.Lock()
	for _, b := range w.fin {
		b.Finalized = b.Err == nil
	}
	m.Mu.Unlock()
	for _, b := range due {
		if b.Err != nil {
			return b.Err
		}
	}
	return nil
}

// stop terminates the batch's live instances, or only the idle ones. One the
// cloud fails to stop stays live and fails the batch for this tick.
func (m *Monitor) stop(b *Batch, idleOnly bool) {
	for i := range b.Instances {
		inst := &b.Instances[i]
		if !inst.Live() || idleOnly && !m.Ports.Idle(b, inst) {
			continue
		}
		if b.Err = m.Ports.Stop(b, inst); b.Err != nil {
			return
		}
		m.Mu.Lock()
		inst.Info.State = cloud.StateTerminated
		m.Mu.Unlock()
	}
}

// launch starts what the batch's plan is short of: a plan to start n is met
// by n live instances. A launch that failed on an earlier tick left the ones
// before it running and billed and the batch not Started (that is set when
// the plan is met), so the Oracle was asked again.
func (m *Monitor) launch(now float64, b *Batch) {
	for n := b.Plan.Workers - b.live(); n > 0; n-- {
		inst, err := m.Ports.Launch(b)
		if err != nil {
			b.Err = err
			return
		}
		inst.LastBill = now
		m.Mu.Lock()
		b.Instances = append(b.Instances, inst)
		m.Mu.Unlock()
	}
	m.Mu.Lock()
	b.Started, b.TriggeredAt, b.ReleaseIdle = true, now, b.Plan.ReleaseIdle
	m.Mu.Unlock()
}
