package core

import (
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
// process, service.SchedulerService with one bulk round trip each. A method
// over a list answers per batch, in its Step, Err included, so a failure
// sidelines that batch and nobody else. Ports decide nothing: who is asked
// what, and what follows from the answers, is Monitor.Run's.
type Ports interface {
	// Progress polls the DG server: Step.Progress.
	Progress(bs []*Batch)
	// Sample hands Information each batch's progress as its sample at now.
	Sample(now float64, bs []*Batch)
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
	// Pay closes the batch's order, refunding what is left of it; paying a
	// closed order is not an error. Archive records the completed batch's
	// execution for α calibration.
	Pay(b *Batch) error
	Archive(b *Batch) error
}

// Monitor holds the Scheduler's live batches and runs the monitor iteration
// over them (Algorithms 1 and 2 of §3.6).
type Monitor struct {
	Ports Ports
	// CountDriven says that something marks batches dirty on their task
	// events and that the trigger reads nothing else (CountDrivenTrigger):
	// Due then skips the batches nothing happened to.
	CountDriven bool

	// Mu guards what a tick writes and another goroutine may read: Order, and
	// the records' lifecycle fields and instance lists. Run takes it for each
	// write and never across a port call, so readers are served meanwhile.
	Mu sync.Mutex
	// Order holds the batches not yet finalized, in registration order (map
	// order would make multi-batch runs non-reproducible for a given seed);
	// registering a batch appends it, and Due drops it on the first call after
	// its finalization, so a tick costs nothing for batches that are done.
	Order []*Batch
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

// Scratch is one tick's working memory; the zero value is ready. Reused by a
// caller that ticks from one goroutine, it keeps a tick allocation-free.
type Scratch struct {
	sel   []*Batch
	cands []TierCandidate
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
//  1. observe — poll the DG, hand Information the samples;
//  2. bill — charge each live instance's usage since its last bill
//     (Algorithm 2), a completing batch's final usage included;
//  3. plan — for a batch still running without cloud support, look its order
//     up and, if it has credits left, ask the Oracle (Algorithm 1);
//  4. admit — with a tier policy, one TierPolicy.Admit call over the plans
//     that say start, against the fleets held before any is stopped or
//     started: a slot freed this tick is granted on the next, and a denied
//     batch asks again then;
//  5. apply, batch by batch: finalize a completed batch, stop the fleet of an
//     exhausted order, or release idle workers (Greedy) and launch what an
//     admitted plan is short of.
//
// Steps 1 to 3 touch only what belongs to one batch (its samples, its order),
// so running each for every batch before the next changes no decision; what
// batches share — cloud supply, the DG's workers, the calibration archive —
// is touched in step 5 alone. A batch a port failed for sits the rest of the
// tick out and is retried on the next; Run returns the first such failure.
func (m *Monitor) Run(now float64, tiers *TierPolicy, due []*Batch, w *Scratch) error {
	p := m.Ports
	for _, b := range due {
		b.Step = Step{Charges: b.Charges[:0]}
		b.dirty, b.armed = false, false
	}
	p.Progress(due)
	p.Sample(now, w.pick(due, func(*Batch) bool { return true }))

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
		return !b.Progress.Done() && !b.Exhausted && !b.Started
	}))
	p.Plan(w.pick(due, func(b *Batch) bool {
		// An order with credits left is an order: one placed with Credit
		// directly, behind the Scheduler's back, is paid like any other.
		b.Ordered = b.Ordered || b.Funded
		return b.Funded
	}))

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

	var first error
	for _, b := range due {
		switch {
		case b.Err != nil || b.Finalized:
			// Failed, or finalized by an earlier batch's side effects.
		case b.Progress.Done():
			m.finalize(b)
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
		if first == nil {
			first = b.Err
		}
	}
	return first
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

// finalize ends QoS support for a completed batch, whose final usage this
// tick's bills already charged: stop the workers, pay the order if there is
// one (refunding the rest), archive the execution. The batch is finalized
// once each has succeeded; a retry repeats nothing — stopped instances are
// skipped, Pay is idempotent, and the archive comes last.
func (m *Monitor) finalize(b *Batch) {
	m.stop(b, false)
	if b.Err == nil && b.Ordered {
		b.Err = m.Ports.Pay(b)
	}
	if b.Err == nil {
		b.Err = m.Ports.Archive(b)
	}
	if b.Err == nil {
		m.Mu.Lock()
		b.Finalized = true
		m.Mu.Unlock()
	}
}
