package middleware

import (
	"fmt"
	"sort"

	"spequlos/internal/bot"
	"spequlos/internal/sim"
)

// Frame is the part of a Desktop Grid server that does not depend on how the
// middleware copes with host volatility: the batch table and its progress
// counters, listeners, worker attachment and the idle set, task arrival, the
// dispatch loop with batch-dedication matchmaking (§3.7), the Reschedule
// duplicate choice (§3.5) and the completion fan-out. A middleware embeds a
// *Frame — which gives it every Server method but WorkerJoin and WorkerLeave —
// and hands it a Mechanism: BOINC's replication, quorum and deadlines
// (internal/boinc), or the single execution, failure detection and
// checkpoints that XWHEP and Condor share (internal/xwhep).
//
// T, E and B are the state the mechanism keeps per task, per execution and
// per batch (its pending-queue views); the frame stores them and never looks
// inside.
type Frame[T, E, B any] struct {
	Eng  *sim.Engine
	name string
	mech Mechanism[T, E, B]

	listeners Listeners
	batches   map[string]*BatchState[T, E, B]
	attached  map[*Worker]*workerState[T, E, B]
	idle      *IdleSet

	reschedule bool

	// barren is dispatch's per-round scratch memo of batches with no
	// eligible work, reused across rounds to avoid per-tick allocation.
	barren map[string]bool

	// Registered op handlers: scheduling an op event carries only an arena
	// payload, so the hot path allocates no closures.
	opArrive sim.Op // Payload.A = *Task
	opResult sim.Op // Payload.A = *Exec: the execution's result arrives
}

// Mechanism is a middleware's way of coping with host volatility, as the
// frame sees it: where pending work waits, what a worker may be handed, what
// starting an execution entails and when a returned result completes its
// task. WorkerJoin, WorkerLeave and whatever the mechanism schedules on its
// own (a replica deadline, a failure detection) reach back into the frame
// through Attach, Detach, Offer, Run, Resume and Dispatch.
type Mechanism[T, E, B any] interface {
	// Enqueue puts a task that just arrived, already flagged queued, into
	// the pending work.
	Enqueue(t *Task[T, E, B])
	// HasQueued reports whether any task waits for a worker.
	HasQueued() bool
	// FirstQueued returns the first waiting task the worker may take: from
	// bt's views of the pending work when the worker is dedicated to that
	// batch, from all of it when bt is nil.
	FirstQueued(w *Worker, bt *BatchState[T, E, B]) *Task[T, E, B]
	// MayDuplicate reports whether a cloud worker dedicated to t's batch
	// may run one more execution of the arrived, incomplete task t.
	MayDuplicate(w *Worker, t *Task[T, E, B]) bool
	// Start begins an execution the frame has just recorded: it takes the
	// work off the queue, accounts for it and calls Run.
	Start(ex *Exec[T, E, B])
	// Result accounts for a result that arrived and reports whether it
	// completes the task.
	Result(ex *Exec[T, E, B]) bool
}

// BatchState is a submitted batch on a server.
type BatchState[T, E, B any] struct {
	Spec Batch
	// M is the mechanism's per-batch state.
	M         B
	size      int
	arrived   int
	completed int
	assigned  int // tasks ever assigned (monotone)
	// running counts the tasks flagged running; it short-circuits Reschedule
	// work scans.
	running int
	done    bool
	tasks   []*Task[T, E, B]
	// byID resolves a task by its spec ID: IDs are batch-unique but not
	// slice indexes when the batch is a subset (Cloud Duplication submits
	// only the incomplete tasks to the cloud server).
	byID map[int]*Task[T, E, B]
}

// Task is one task of a batch (a BOINC workunit, an XWHEP or Condor job).
type Task[T, E, B any] struct {
	Batch *BatchState[T, E, B]
	Spec  bot.Task
	// M is the mechanism's per-task state.
	M T
	// Execs holds the task's executions the server has not given up on, by
	// worker. The mechanism may delete from it; only the frame inserts.
	Execs map[*Worker]*Exec[T, E, B]

	arrived   bool
	completed bool
	assigned  bool // ever assigned
	queued    bool
	running   bool
}

// Queued implements Queueable: the task waits for a worker.
func (t *Task[T, E, B]) Queued() bool { return t.queued }

// SetQueued records whether the task waits for a worker; pushing it onto a
// Pending queue is the mechanism's business.
func (t *Task[T, E, B]) SetQueued(queued bool) { t.queued = queued }

// Completed reports whether the task's result was accepted or merged in.
func (t *Task[T, E, B]) Completed() bool { return t.completed }

// Running reports whether the server believes the task is executing.
func (t *Task[T, E, B]) Running() bool { return t.running }

// SetRunning records whether the server believes the task is executing —
// what Progress reports as Running and what makes it a Reschedule candidate.
func (t *Task[T, E, B]) SetRunning(running bool) {
	if running != t.running {
		t.running = running
		if running {
			t.Batch.running++
		} else {
			t.Batch.running--
		}
	}
}

// cloudExecs counts the task's executions on cloud workers.
func (t *Task[T, E, B]) cloudExecs() int {
	n := 0
	for w := range t.Execs {
		if w.Cloud {
			n++
		}
	}
	return n
}

// Exec is one execution of a task on a worker.
type Exec[T, E, B any] struct {
	W    *Worker
	Task *Task[T, E, B]
	// M is the mechanism's per-execution state.
	M      E
	result sim.Event
}

// workerState is an attached worker's assignment (nil while it is idle).
type workerState[T, E, B any] struct{ cur *Task[T, E, B] }

// NewFrame creates the frame of a server called name on the engine.
func NewFrame[T, E, B any](eng *sim.Engine, name string, mech Mechanism[T, E, B]) *Frame[T, E, B] {
	f := &Frame[T, E, B]{
		Eng:      eng,
		name:     name,
		mech:     mech,
		batches:  map[string]*BatchState[T, E, B]{},
		attached: map[*Worker]*workerState[T, E, B]{},
		idle:     NewIdleSet(),
		barren:   map[string]bool{},
	}
	f.opArrive = eng.RegisterOp(func(p sim.Payload) { f.arrive(p.A.(*Task[T, E, B])) })
	f.opResult = eng.RegisterOp(func(p sim.Payload) { f.result(p.A.(*Exec[T, E, B])) })
	return f
}

// MiddlewareName implements Server.
func (f *Frame[T, E, B]) MiddlewareName() string { return f.name }

// AddListener implements Server.
func (f *Frame[T, E, B]) AddListener(l Listener) { f.listeners = append(f.listeners, l) }

// SetReschedule implements Server.
func (f *Frame[T, E, B]) SetReschedule(enabled bool) { f.reschedule = enabled }

// Submit implements Server.
func (f *Frame[T, E, B]) Submit(b Batch) {
	if _, ok := f.batches[b.ID]; ok {
		panic(fmt.Sprintf("%s: duplicate batch %q", f.name, b.ID))
	}
	bt := &BatchState[T, E, B]{
		Spec:  b,
		size:  len(b.Tasks),
		tasks: make([]*Task[T, E, B], 0, len(b.Tasks)),
		byID:  make(map[int]*Task[T, E, B], len(b.Tasks)),
	}
	f.batches[b.ID] = bt
	for _, spec := range b.Tasks {
		t := &Task[T, E, B]{Batch: bt, Spec: spec, Execs: map[*Worker]*Exec[T, E, B]{}}
		bt.tasks = append(bt.tasks, t)
		bt.byID[spec.ID] = t
		f.Eng.AfterOp(spec.Arrival, f.opArrive, sim.Payload{A: t})
	}
}

// arrive makes a task visible to the scheduler at its arrival time.
func (f *Frame[T, E, B]) arrive(t *Task[T, E, B]) {
	t.arrived = true
	t.Batch.arrived++
	if t.completed {
		// A result merged in before the arrival (MarkCompleted): the task
		// counts as arrived but is never queued, or it would run again.
		return
	}
	t.queued = true
	f.mech.Enqueue(t)
	f.Dispatch()
}

// Attach records a joining worker, reporting false if it was attached
// already. The caller follows with Resume or Offer.
func (f *Frame[T, E, B]) Attach(w *Worker) bool {
	if _, ok := f.attached[w]; ok {
		return false
	}
	f.attached[w] = &workerState[T, E, B]{}
	return true
}

// Offer makes an attached worker available for work.
func (f *Frame[T, E, B]) Offer(w *Worker) {
	f.idle.Add(w)
	f.Dispatch()
}

// Detach removes a leaving worker. If it was executing, the result it would
// have returned is cancelled and the execution — still in its task's Execs,
// since the server has not noticed anything — is returned.
func (f *Frame[T, E, B]) Detach(w *Worker) *Exec[T, E, B] {
	st, ok := f.attached[w]
	if !ok {
		return nil
	}
	delete(f.attached, w)
	f.idle.Remove(w)
	if st.cur == nil {
		return nil
	}
	ex := st.cur.Execs[w]
	if ex != nil {
		f.Eng.Cancel(ex.result)
	}
	return ex
}

// Run schedules the execution's result dur seconds from now.
func (f *Frame[T, E, B]) Run(ex *Exec[T, E, B], dur float64) {
	ex.result = f.Eng.AfterOp(dur, f.opResult, sim.Payload{A: ex})
}

// Resume continues, on its freshly attached worker, an execution Detach
// interrupted: the result arrives dur seconds from now.
func (f *Frame[T, E, B]) Resume(ex *Exec[T, E, B], dur float64) {
	f.attached[ex.W].cur = ex.Task
	f.Run(ex, dur)
}

// Dispatch pairs idle workers with assignable work until no pair remains.
func (f *Frame[T, E, B]) Dispatch() {
	for {
		hasQueued := f.mech.HasQueued()
		if !hasQueued && !(f.reschedule && f.idle.CloudCount() > 0 && f.anyDupCandidate()) {
			return // nothing queued, and no idle cloud worker to duplicate for
		}
		// Memoize batches found to have no eligible work this round so a
		// fleet of same-batch cloud workers costs one scan, not N.
		clear(f.barren)
		barren := f.barren
		var t *Task[T, E, B]
		w := f.idle.Pick(func(w *Worker) bool {
			if barren[w.DedicatedBatch] {
				return false
			}
			if !hasQueued && !(w.Cloud && w.DedicatedBatch != "") {
				return false
			}
			if t = f.peek(w); t == nil {
				if w.DedicatedBatch == "" && !w.Cloud {
					// A free node refused only by the mechanism's per-task
					// constraints; others may differ, so do not mark
					// anything barren.
					return false
				}
				barren[w.DedicatedBatch] = true
				return false
			}
			return true
		})
		if w == nil {
			return
		}
		f.assign(w, t)
	}
}

// anyDupCandidate reports whether a Reschedule duplicate could be created.
func (f *Frame[T, E, B]) anyDupCandidate() bool {
	for _, bt := range f.batches {
		if !bt.done && bt.running > 0 {
			return true
		}
	}
	return false
}

// peek returns the task the worker would execute, without dequeuing. Batch
// dedication (batchid in BOINC, xwgroup in XWHEP; §3.7) is applied here: a
// dedicated worker is only ever shown its own batch.
func (f *Frame[T, E, B]) peek(w *Worker) *Task[T, E, B] {
	var bt *BatchState[T, E, B]
	if w.DedicatedBatch != "" {
		if bt = f.batches[w.DedicatedBatch]; bt == nil {
			return nil
		}
	}
	if t := f.mech.FirstQueued(w, bt); t != nil {
		return t
	}
	if bt == nil || !f.reschedule || !w.Cloud {
		return nil
	}
	// Reschedule (§3.5): serve the cloud worker one more execution of an
	// incomplete task. Cloud workers stay continuously busy until the batch
	// completes — the paper's Fig 5 commentary — spreading over the
	// least-duplicated tasks first.
	var best *Task[T, E, B]
	bestDups := 0
	for _, t := range bt.tasks {
		if !t.arrived || t.completed || !f.mech.MayDuplicate(w, t) {
			continue
		}
		dups := t.cloudExecs()
		if best == nil || dups < bestDups {
			best, bestDups = t, dups
			if dups == 0 {
				break
			}
		}
	}
	return best
}

// assign hands an idle worker one execution of t.
func (f *Frame[T, E, B]) assign(w *Worker, t *Task[T, E, B]) {
	st := f.attached[w]
	if st == nil || st.cur != nil {
		panic(f.name + ": assigning to busy or detached worker")
	}
	st.cur = t
	if !t.assigned {
		t.assigned = true
		t.Batch.assigned++
		f.listeners.TaskAssigned(t.Batch.Spec.ID, t.Spec.ID, f.Eng.Now())
	}
	ex := &Exec[T, E, B]{W: w, Task: t}
	t.Execs[w] = ex
	f.mech.Start(ex)
}

// result handles a result arriving from an execution: the worker is free
// again whatever the result is worth.
func (f *Frame[T, E, B]) result(ex *Exec[T, E, B]) {
	w, t := ex.W, ex.Task
	if st := f.attached[w]; st != nil && st.cur == t {
		st.cur = nil
		f.idle.Add(w)
	}
	delete(t.Execs, w)
	if f.mech.Result(ex) && !t.completed {
		f.complete(t, w)
	}
	f.Dispatch()
}

// complete marks t completed, cancels its other executions and frees their
// workers. by is the worker whose result completed the task (nil for
// externally-merged results).
func (f *Frame[T, E, B]) complete(t *Task[T, E, B], by *Worker) {
	bt := t.Batch
	t.SetRunning(false)
	t.completed = true
	t.queued = false
	bt.completed++
	now := f.Eng.Now()
	f.listeners.TaskCompleted(bt.Spec.ID, t.Spec.ID, now)
	f.listeners.NotifyExecutedBy(bt.Spec.ID, t.Spec.ID, by, now)
	for _, w := range sortedExecWorkers(t.Execs) {
		f.Eng.Cancel(t.Execs[w].result)
		delete(t.Execs, w)
		// A worker that left (and maybe came back) is not on this task.
		if st := f.attached[w]; st != nil && st.cur == t {
			st.cur = nil
			f.idle.Add(w)
		}
	}
	if bt.completed >= bt.size && !bt.done {
		bt.done = true
		f.listeners.BatchCompleted(bt.Spec.ID, now)
	}
}

// sortedExecWorkers returns the workers of a task's executions in ID order:
// map order would leak nondeterminism into the idle set and break seed
// reproducibility. The usual completion leaves none.
func sortedExecWorkers[X any](execs map[*Worker]X) []*Worker {
	if len(execs) == 0 {
		return nil
	}
	out := make([]*Worker, 0, len(execs))
	for w := range execs {
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// MarkCompleted implements Server (result merging for Cloud Duplication).
// Tasks are resolved by spec ID, which stays correct when the batch is a
// subset whose IDs are not dense slice indexes.
func (f *Frame[T, E, B]) MarkCompleted(batchID string, taskID int) {
	bt := f.batches[batchID]
	if bt == nil {
		return
	}
	t := bt.byID[taskID]
	if t == nil || t.completed {
		return
	}
	f.complete(t, nil)
	f.Dispatch()
}

// Progress implements Server.
func (f *Frame[T, E, B]) Progress(batchID string) Progress {
	bt := f.batches[batchID]
	if bt == nil {
		return Progress{}
	}
	queued := 0
	for _, t := range bt.tasks {
		if t.queued && !t.running {
			queued++
		}
	}
	return Progress{
		Size:         bt.size,
		Arrived:      bt.arrived,
		Completed:    bt.completed,
		EverAssigned: bt.assigned,
		Running:      bt.running,
		Queued:       queued,
		Workers:      len(f.attached),
	}
}

// Done implements Server.
func (f *Frame[T, E, B]) Done(batchID string) bool {
	bt := f.batches[batchID]
	return bt != nil && bt.done
}

// Incomplete implements Server.
func (f *Frame[T, E, B]) Incomplete(batchID string) []bot.Task {
	var out []bot.Task
	for _, t := range f.Tasks(batchID) {
		if !t.completed {
			spec := t.Spec
			spec.Arrival = 0
			out = append(out, spec)
		}
	}
	return out
}

// Tasks returns a batch's tasks in submission order (nil for an unknown
// batch).
func (f *Frame[T, E, B]) Tasks(batchID string) []*Task[T, E, B] {
	bt := f.batches[batchID]
	if bt == nil {
		return nil
	}
	return bt.tasks
}

// WorkerBusy implements Server.
func (f *Frame[T, E, B]) WorkerBusy(w *Worker) bool {
	st := f.attached[w]
	return st != nil && st.cur != nil
}
