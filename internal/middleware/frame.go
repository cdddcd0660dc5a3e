package middleware

import (
	"fmt"
	"slices"

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
// T and E are the state the mechanism keeps per task and per execution; the
// frame stores them and never looks inside.
//
// The state is dense: a worker's record is a slot of the frame's worker
// table, numbered at its first Attach; a task's executions are a short slice
// in worker-ID order, carved from its batch's slab; a batch's tasks are one
// slab; executions are records of a bump slab.
//
// A server is reusable: Reset empties it and Open readies it on the next
// cell's engine, which reuses the slabs (recycle). A cell frees nothing
// while it runs, so no record moves or is recycled under a pointer to it;
// every slab is zero past what the cell used, so Reset costs what the cell
// used, not what the slabs hold.
type Frame[T, E any] struct {
	eng  *sim.Engine
	name string
	mech Mechanism[T, E]

	listeners Listeners
	batches   map[string]*BatchState[T, E]
	// pool holds every batch state the frame has built; batch k of a cell
	// (BatchState.Num) reuses pool[k].
	pool []*BatchState[T, E]
	// workers is every worker the server has seen, by slot, and the idle
	// set; attached counts the records flagged attached.
	workers  workerTable[workerState[T, E]]
	attached int

	reschedule bool

	// barren is dispatch's per-round scratch memo of batches with no
	// eligible work, reused across rounds to avoid per-tick allocation.
	barren map[string]bool

	// execs is the bump slab executions are carved from: chunks of
	// execChunk records that never move, at most keptExecChunks of them. The
	// cell uses the first usedChunks; free is the rest of the chunk in use.
	// Past the slab, an execution is an allocation of its own.
	execs      [][]Exec[T, E]
	usedChunks int
	free       []Exec[T, E]

	// Registered op handlers: scheduling an op event carries only an arena
	// payload, so the hot path allocates no closures.
	opArrive sim.Op // Payload.A = *BatchState, I = first task of a run
	opResult sim.Op // Payload.A = *Exec: the execution's result arrives
	opAlarm  sim.Op // Payload.A = *Exec: the mechanism's alarm (Alarm)
}

const (
	// execChunk is the number of Exec records in a chunk of the slab.
	execChunk = 256
	// keptExecChunks bounds the slab: 8192 records, more than any single-BoT
	// cell of the standard profile uses (4549 at most). The executions past
	// it are allocated one by one, so that the collector reclaims each once
	// it is unreachable: a long multi-batch cell would otherwise hold every
	// execution it ran until it ends.
	keptExecChunks = 32
	// execsPerTask is the capacity of a task's execution list carved from
	// its batch's slab: BOINC's three replicas and a reissue. A task that
	// needs more grows its list on its own.
	execsPerTask = 4
)

// Mechanism is a middleware's way of coping with host volatility, as the
// frame sees it: where pending work waits, what a worker may be handed, what
// starting an execution entails and when a returned result completes its
// task. WorkerJoin, WorkerLeave and whatever the mechanism schedules on its
// own (a replica deadline, a failure detection) reach back into the frame
// through Attach, Detach, Park, Unpark, Offer, Run, Resume, Alarm and
// Dispatch.
type Mechanism[T, E any] interface {
	// Enqueue puts a task that just arrived, already flagged queued, into
	// the pending work.
	Enqueue(t *Task[T, E])
	// HasQueued reports whether any task waits for a worker.
	HasQueued() bool
	// FirstQueued returns the first waiting task the worker may take: from
	// bt's views of the pending work when the worker is dedicated to that
	// batch, from all of it when bt is nil.
	FirstQueued(w *Worker, bt *BatchState[T, E]) *Task[T, E]
	// MayDuplicate reports whether a cloud worker dedicated to t's batch
	// may run one more execution of the arrived, incomplete task t.
	MayDuplicate(w *Worker, t *Task[T, E]) bool
	// Start begins an execution the frame has just recorded: it takes the
	// work off the queue, accounts for it and calls Run.
	Start(ex *Exec[T, E])
	// Result accounts for a result that arrived and reports whether it
	// completes the task.
	Result(ex *Exec[T, E]) bool
	// Expire handles the alarm the mechanism set on an execution (Alarm):
	// BOINC's replica deadline, XWHEP's and Condor's failure detection.
	Expire(ex *Exec[T, E])
	// Clear empties the mechanism's queues, keeping their capacity; the
	// frame's Reset calls it.
	Clear()
}

// BatchState is a submitted batch on a server.
type BatchState[T, E any] struct {
	Spec      Batch
	num       int
	size      int
	arrived   int
	completed int
	assigned  int // tasks ever assigned (monotone)
	// running counts the tasks flagged running; it short-circuits Reschedule
	// work scans.
	running int
	done    bool
	tasks   []Task[T, E]
	// index resolves a task by its spec ID: 1 + the task's index in tasks, 0
	// for no task. IDs are batch-unique but not slice indexes when the batch
	// is a subset (Cloud Duplication submits only the incomplete tasks to the
	// cloud server), so the table is as long as the largest ID.
	index []int32
	// execs backs the tasks' execution lists, execsPerTask each.
	execs []*Exec[T, E]
}

// Num is the batch's number on its server: the count of batches submitted
// before it. The mechanism's queues list a batch's entries under it.
func (bt *BatchState[T, E]) Num() int { return bt.num }

// reset empties the batch state for reuse.
func (bt *BatchState[T, E]) reset() {
	*bt = BatchState[T, E]{tasks: recycle(bt.tasks), index: recycle(bt.index), execs: recycle(bt.execs)}
}

// recycle empties a slab for the next cell: cleared and kept when the cell
// used at least half of it, dropped otherwise, so that one large cell's slabs
// are not held through the smaller ones after it.
func recycle[S any](s []S) []S {
	if 2*len(s) < cap(s) {
		return nil
	}
	clear(s)
	return s[:0]
}

// grow returns s resized to n elements, reusing its backing array when it is
// large enough; the elements are zero if s is zero past its length.
func grow[S any](s []S, n int) []S { return slices.Grow(s[:0], n)[:n] }

// Task is one task of a batch (a BOINC workunit, an XWHEP or Condor job).
type Task[T, E any] struct {
	Batch *BatchState[T, E]
	Spec  bot.Task
	// M is the mechanism's per-task state.
	M T
	// execs holds the task's executions the server has not given up on, in
	// worker-ID order. The mechanism may drop one (DropExec); only the frame
	// inserts.
	execs []*Exec[T, E]

	arrived   bool
	completed bool
	assigned  bool // ever assigned
	queued    bool
	running   bool
}

// Queued implements Queueable: the task waits for a worker.
func (t *Task[T, E]) Queued() bool { return t.queued }

// SetQueued records whether the task waits for a worker; pushing it onto a
// Pending queue is the mechanism's business.
func (t *Task[T, E]) SetQueued(queued bool) { t.queued = queued }

// Completed reports whether the task's result was accepted or merged in.
func (t *Task[T, E]) Completed() bool { return t.completed }

// Running reports whether the server believes the task is executing.
func (t *Task[T, E]) Running() bool { return t.running }

// SetRunning records whether the server believes the task is executing —
// what Progress reports as Running and what makes it a Reschedule candidate.
func (t *Task[T, E]) SetRunning(running bool) {
	if running != t.running {
		t.running = running
		if running {
			t.Batch.running++
		} else {
			t.Batch.running--
		}
	}
}

// ExecOn returns the task's execution on w, nil if there is none.
func (t *Task[T, E]) ExecOn(w *Worker) *Exec[T, E] {
	for _, ex := range t.execs {
		if ex.W == w {
			return ex
		}
	}
	return nil
}

// DropExec gives up on the task's execution on w, if there is one.
func (t *Task[T, E]) DropExec(w *Worker) {
	for i, ex := range t.execs {
		if ex.W == w {
			t.execs = slices.Delete(t.execs, i, i+1)
			return
		}
	}
}

// NumExecs returns the number of executions the server has not given up on.
func (t *Task[T, E]) NumExecs() int { return len(t.execs) }

// addExec records an execution, in worker-ID order: it replaces one on the
// same worker.
func (t *Task[T, E]) addExec(ex *Exec[T, E]) {
	i := 0
	for ; i < len(t.execs) && t.execs[i].W.ID <= ex.W.ID; i++ {
		if t.execs[i].W == ex.W {
			t.execs[i] = ex
			return
		}
	}
	t.execs = slices.Insert(t.execs, i, ex)
}

// cloudExecs counts the task's executions on cloud workers.
func (t *Task[T, E]) cloudExecs() int {
	n := 0
	for _, ex := range t.execs {
		if ex.W.Cloud {
			n++
		}
	}
	return n
}

// Exec is one execution of a task on a worker.
type Exec[T, E any] struct {
	W    *Worker
	Task *Task[T, E]
	// M is the mechanism's per-execution state.
	M      E
	result sim.Event
}

// workerState is what the frame keeps per worker it has seen: whether it is
// attached, the task it executes (nil while it is idle or away) and the
// execution parked on it while it is away (Park).
type workerState[T, E any] struct {
	attached bool
	cur      *Task[T, E]
	parked   *Exec[T, E]
}

// NewFrame creates the frame of a server called name on the engine.
func NewFrame[T, E any](eng *sim.Engine, name string, mech Mechanism[T, E]) *Frame[T, E] {
	f := &Frame[T, E]{
		name:    name,
		mech:    mech,
		batches: map[string]*BatchState[T, E]{},
		barren:  map[string]bool{},
	}
	f.Open(eng)
	return f
}

// Open readies the server on eng, new or after Reset: its handlers are
// registered there.
func (f *Frame[T, E]) Open(eng *sim.Engine) {
	f.eng = eng
	f.opArrive = eng.RegisterOp(func(p sim.Payload) { f.arriveRun(p.A.(*BatchState[T, E]), int(p.I)) })
	f.opResult = eng.RegisterOp(func(p sim.Payload) { f.result(p.A.(*Exec[T, E])) })
	f.opAlarm = eng.RegisterOp(func(p sim.Payload) { f.mech.Expire(p.A.(*Exec[T, E])) })
}

// Reset empties the server — batches, workers, executions, listeners, the
// mechanism's queues — and detaches it from its engine, keeping its slabs
// (recycle), so that it holds nothing of the cell it ran. Every worker
// the server numbered is free to join another server. Open readies it again.
func (f *Frame[T, E]) Reset() {
	f.workers.reset()
	used := len(f.batches)
	for _, bt := range f.pool[:used] {
		bt.reset()
	}
	if 2*used < len(f.pool) {
		clear(f.pool[used:])
		f.pool = f.pool[:used]
	}
	clear(f.batches)
	clear(f.barren)
	clear(f.listeners)
	f.listeners = f.listeners[:0]
	for _, chunk := range f.execs[:f.usedChunks] {
		clear(chunk)
	}
	if 2*f.usedChunks < len(f.execs) {
		clear(f.execs[f.usedChunks:])
		f.execs = f.execs[:f.usedChunks]
	}
	f.usedChunks, f.free = 0, nil
	f.attached, f.reschedule = 0, false
	f.mech.Clear()
	f.eng, f.opArrive, f.opResult, f.opAlarm = nil, 0, 0, 0
}

// MiddlewareName implements Server.
func (f *Frame[T, E]) MiddlewareName() string { return f.name }

// Engine implements Server.
func (f *Frame[T, E]) Engine() *sim.Engine { return f.eng }

// AddListener implements Server.
func (f *Frame[T, E]) AddListener(l Listener) { f.listeners = append(f.listeners, l) }

// SetReschedule implements Server.
func (f *Frame[T, E]) SetReschedule(enabled bool) { f.reschedule = enabled }

// Submit implements Server. A repeated or negative task ID panics, as a
// repeated batch ID does. Each run of consecutive tasks that share an
// arrival offset is one arrival event: the events are pushed back to back,
// so no other event sorts between two of them, and a run arriving in slice
// order is the order one event per task would fire in.
func (f *Frame[T, E]) Submit(b Batch) {
	if _, ok := f.batches[b.ID]; ok {
		panic(fmt.Sprintf("%s: duplicate batch %q", f.name, b.ID))
	}
	maxID := -1
	for _, spec := range b.Tasks {
		if spec.ID < 0 {
			panic(fmt.Sprintf("%s: batch %q: negative task ID %d", f.name, b.ID, spec.ID))
		}
		maxID = max(maxID, spec.ID)
	}
	num := len(f.batches)
	if num == len(f.pool) {
		f.pool = append(f.pool, new(BatchState[T, E]))
	}
	bt := f.pool[num]
	bt.index = grow(bt.index, maxID+1)
	for i, spec := range b.Tasks {
		if bt.index[spec.ID] != 0 {
			clear(bt.index)
			panic(fmt.Sprintf("%s: batch %q: duplicate task ID %d", f.name, b.ID, spec.ID))
		}
		bt.index[spec.ID] = int32(i + 1)
	}
	n := len(b.Tasks)
	bt.Spec, bt.num, bt.size = b, num, n
	bt.tasks = grow(bt.tasks, n)
	bt.execs = grow(bt.execs, n*execsPerTask)
	for i, spec := range b.Tasks {
		execs := bt.execs[i*execsPerTask : i*execsPerTask : (i+1)*execsPerTask]
		bt.tasks[i] = Task[T, E]{Batch: bt, Spec: spec, execs: execs}
	}
	f.batches[b.ID] = bt
	for i := range bt.tasks {
		if i == 0 || bt.tasks[i].Spec.Arrival != bt.tasks[i-1].Spec.Arrival {
			f.eng.AfterOp(bt.tasks[i].Spec.Arrival, f.opArrive, sim.Payload{A: bt, I: int32(i)})
		}
	}
}

// arriveRun makes the run of tasks from the first one on that share its
// arrival offset arrive, in slice order.
func (f *Frame[T, E]) arriveRun(bt *BatchState[T, E], first int) {
	at := bt.tasks[first].Spec.Arrival
	for i := first; i < len(bt.tasks) && bt.tasks[i].Spec.Arrival == at; i++ {
		f.arrive(&bt.tasks[i])
	}
}

// arrive makes a task visible to the scheduler at its arrival time.
func (f *Frame[T, E]) arrive(t *Task[T, E]) {
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
// already. The caller follows with Resume or Offer. The frame numbers a
// worker at its first Attach; a worker another server numbered panics.
func (f *Frame[T, E]) Attach(w *Worker) bool {
	st := &f.workers.number(w).state
	if st.attached {
		return false
	}
	st.attached = true
	f.attached++
	return true
}

// Offer makes an attached worker available for work.
func (f *Frame[T, E]) Offer(w *Worker) {
	f.workers.Add(w)
	f.Dispatch()
}

// Detach removes a leaving worker. If it was executing, the result it would
// have returned is cancelled and the execution — still among its task's
// executions, since the server has not noticed anything — is returned.
func (f *Frame[T, E]) Detach(w *Worker) *Exec[T, E] {
	s := f.workers.slot(w)
	if s == nil || !s.state.attached {
		return nil
	}
	f.workers.Remove(w)
	cur := s.state.cur
	s.state.attached, s.state.cur = false, nil
	f.attached--
	if cur == nil {
		return nil
	}
	ex := cur.ExecOn(w)
	if ex != nil {
		f.eng.Cancel(ex.result)
	}
	return ex
}

// Park keeps an execution Detach returned on its worker's record until the
// worker comes back (Unpark). Parking another replaces it.
func (f *Frame[T, E]) Park(ex *Exec[T, E]) { f.workers.slot(ex.W).state.parked = ex }

// Unpark returns and forgets the execution parked on w, nil if there is none.
func (f *Frame[T, E]) Unpark(w *Worker) *Exec[T, E] {
	s := f.workers.slot(w)
	if s == nil {
		return nil
	}
	ex := s.state.parked
	s.state.parked = nil
	return ex
}

// Run schedules the execution's result dur seconds from now.
func (f *Frame[T, E]) Run(ex *Exec[T, E], dur float64) {
	ex.result = f.eng.AfterOp(dur, f.opResult, sim.Payload{A: ex})
}

// Alarm schedules the mechanism's Expire(ex) d seconds from now.
func (f *Frame[T, E]) Alarm(ex *Exec[T, E], d float64) {
	f.eng.AfterOp(d, f.opAlarm, sim.Payload{A: ex})
}

// Resume continues, on its freshly attached worker, an execution Detach
// interrupted: the result arrives dur seconds from now.
func (f *Frame[T, E]) Resume(ex *Exec[T, E], dur float64) {
	f.workers.slot(ex.W).state.cur = ex.Task
	f.Run(ex, dur)
}

// Dispatch pairs idle workers with assignable work until no pair remains.
func (f *Frame[T, E]) Dispatch() {
	for {
		hasQueued := f.mech.HasQueued()
		if !hasQueued && !(f.reschedule && f.workers.CloudCount() > 0 && f.anyDupCandidate()) {
			return // nothing queued, and no idle cloud worker to duplicate for
		}
		// Memoize batches found to have no eligible work this round so a
		// fleet of same-batch cloud workers costs one scan, not N.
		clear(f.barren)
		barren := f.barren
		var t *Task[T, E]
		w := f.workers.Pick(func(w *Worker) bool {
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
func (f *Frame[T, E]) anyDupCandidate() bool {
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
func (f *Frame[T, E]) peek(w *Worker) *Task[T, E] {
	var bt *BatchState[T, E]
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
	var best *Task[T, E]
	bestDups := 0
	for i := range bt.tasks {
		t := &bt.tasks[i]
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
func (f *Frame[T, E]) assign(w *Worker, t *Task[T, E]) {
	s := f.workers.slot(w)
	if s == nil || !s.state.attached || s.state.cur != nil {
		panic(f.name + ": assigning to busy or detached worker")
	}
	s.state.cur = t
	if !t.assigned {
		t.assigned = true
		t.Batch.assigned++
		f.listeners.TaskAssigned(t.Batch.Spec.ID, t.Spec.ID, f.eng.Now())
	}
	ex := f.newExec(w, t)
	t.addExec(ex)
	f.mech.Start(ex)
}

// newExec carves an execution of t on w from the slab, or allocates it once
// the slab is used up.
func (f *Frame[T, E]) newExec(w *Worker, t *Task[T, E]) *Exec[T, E] {
	if len(f.free) == 0 {
		if f.usedChunks == len(f.execs) {
			if len(f.execs) == keptExecChunks {
				return &Exec[T, E]{W: w, Task: t}
			}
			f.execs = append(f.execs, make([]Exec[T, E], execChunk))
		}
		f.free = f.execs[f.usedChunks]
		f.usedChunks++
	}
	ex := &f.free[0]
	f.free = f.free[1:]
	ex.W, ex.Task = w, t
	return ex
}

// result handles a result arriving from an execution: the worker is free
// again whatever the result is worth.
func (f *Frame[T, E]) result(ex *Exec[T, E]) {
	w, t := ex.W, ex.Task
	f.release(w, t)
	t.DropExec(w)
	if f.mech.Result(ex) && !t.completed {
		f.complete(t, w)
	}
	f.Dispatch()
}

// complete marks t completed, cancels its other executions and frees their
// workers. by is the worker whose result completed the task (for a merged
// result, the worker on the other server; nil when none is known).
func (f *Frame[T, E]) complete(t *Task[T, E], by *Worker) {
	bt := t.Batch
	t.SetRunning(false)
	t.completed = true
	t.queued = false
	bt.completed++
	now := f.eng.Now()
	f.listeners.TaskCompleted(bt.Spec.ID, t.Spec.ID, by, now)
	// In worker-ID order, so the idle set is refilled the same way on every
	// run. The usual completion leaves no execution.
	for _, ex := range t.execs {
		f.eng.Cancel(ex.result)
		f.release(ex.W, t)
	}
	clear(t.execs)
	t.execs = t.execs[:0]
	if bt.completed >= bt.size && !bt.done {
		bt.done = true
		f.listeners.BatchCompleted(bt.Spec.ID, now)
	}
}

// release frees a worker executing t. A worker that left (and maybe came
// back) is not on t.
func (f *Frame[T, E]) release(w *Worker, t *Task[T, E]) {
	if s := f.workers.slot(w); s != nil && s.state.cur == t {
		s.state.cur = nil
		f.workers.Add(w)
	}
}

// MarkCompleted implements Server (result merging for Cloud Duplication).
// Tasks are resolved by spec ID, which stays correct when the batch is a
// subset whose IDs are not dense slice indexes.
func (f *Frame[T, E]) MarkCompleted(batchID string, taskID int, by *Worker) {
	bt := f.batches[batchID]
	if bt == nil {
		return
	}
	if taskID < 0 || taskID >= len(bt.index) || bt.index[taskID] == 0 {
		return
	}
	t := &bt.tasks[bt.index[taskID]-1]
	if t.completed {
		return
	}
	f.complete(t, by)
	f.Dispatch()
}

// Progress implements Server.
func (f *Frame[T, E]) Progress(batchID string) Progress {
	bt := f.batches[batchID]
	if bt == nil {
		return Progress{}
	}
	queued := 0
	for i := range bt.tasks {
		if t := &bt.tasks[i]; t.queued && !t.running {
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
		Workers:      f.attached,
	}
}

// Done implements Server.
func (f *Frame[T, E]) Done(batchID string) bool {
	bt := f.batches[batchID]
	return bt != nil && bt.done
}

// Incomplete implements Server.
func (f *Frame[T, E]) Incomplete(batchID string) []bot.Task {
	var out []bot.Task
	tasks := f.Tasks(batchID)
	for i := range tasks {
		if t := &tasks[i]; !t.completed {
			spec := t.Spec
			spec.Arrival = 0
			out = append(out, spec)
		}
	}
	return out
}

// Tasks returns a batch's tasks in submission order (nil for an unknown
// batch).
func (f *Frame[T, E]) Tasks(batchID string) []Task[T, E] {
	bt := f.batches[batchID]
	if bt == nil {
		return nil
	}
	return bt.tasks
}

// WorkerBusy implements Server.
func (f *Frame[T, E]) WorkerBusy(w *Worker) bool {
	s := f.workers.slot(w)
	return s != nil && s.state.cur != nil
}

// CheckInvariants reports the first broken invariant of the frame's dense
// state, nil if they all hold. Between events: the attached count is the
// number of records flagged attached; the idle list and its records agree;
// every idle worker is attached with no task; a worker's task has an
// execution on it; and each task's executions are in strictly increasing
// worker-ID order.
func (f *Frame[T, E]) CheckInvariants() error {
	ws := &f.workers
	attached, idle, cloud := 0, 0, 0
	for i := range ws.slots {
		s := &ws.slots[i]
		st := &s.state
		if st.attached {
			attached++
		}
		if s.idle > 0 {
			idle++
			if s.cloud {
				cloud++
			}
			if int(s.idle) > len(ws.idle) || ws.idle[s.idle-1] != s.w {
				return fmt.Errorf("%s: worker %d: idle record %d disagrees with the idle list", f.name, s.w.ID, s.idle)
			}
			if !st.attached || st.cur != nil {
				return fmt.Errorf("%s: idle worker %d: attached %v, busy %v", f.name, s.w.ID, st.attached, st.cur != nil)
			}
		}
		if st.cur != nil && (!st.attached || st.cur.ExecOn(s.w) == nil) {
			return fmt.Errorf("%s: worker %d on task %d: attached %v, an execution on it %v", f.name, s.w.ID, st.cur.Spec.ID, st.attached, st.cur.ExecOn(s.w) != nil)
		}
	}
	if attached != f.attached {
		return fmt.Errorf("%s: %d workers counted attached, %d records attached", f.name, f.attached, attached)
	}
	if idle != len(ws.idle) || cloud != ws.cloud {
		return fmt.Errorf("%s: idle list %d (%d cloud), records %d (%d cloud)", f.name, len(ws.idle), ws.cloud, idle, cloud)
	}
	for _, bt := range f.batches {
		for i := range bt.tasks {
			t := &bt.tasks[i]
			for j := 1; j < len(t.execs); j++ {
				if t.execs[j-1].W.ID >= t.execs[j].W.ID {
					return fmt.Errorf("%s: batch %q task %d: executions on workers %d, %d out of order", f.name, bt.Spec.ID, t.Spec.ID, t.execs[j-1].W.ID, t.execs[j].W.ID)
				}
			}
		}
	}
	return nil
}
