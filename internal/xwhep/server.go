package xwhep

import (
	"fmt"
	"sort"

	"spequlos/internal/bot"
	"spequlos/internal/middleware"
	"spequlos/internal/sim"
)

// Model is everything that distinguishes one single-execution Desktop Grid
// middleware from another: each task runs once (no replication), and a lost
// worker is noticed after a delay and its task requeued. XWHEP (this
// package's New) and Condor (package condor's New) are two values of it,
// derived from their own documented parameters; nothing else builds one.
type Model struct {
	// Name is what MiddlewareName returns.
	Name string
	// DetectDelay is the time from a worker's departure to the server
	// noticing it and requeueing the task.
	DetectDelay float64
	// CheckpointPeriod is the periodic checkpoint interval: work up to the
	// last checkpoint survives the loss of the worker. 0 means no
	// checkpoints — all work in flight is lost.
	CheckpointPeriod float64
	// RequeueFirst serves a task requeued after a detected failure before
	// every never-assigned task; otherwise it joins the back of the queue.
	RequeueFirst bool
}

// Server simulates a single-execution Desktop Grid server under one Model.
// It implements middleware.Server.
type Server struct {
	eng       *sim.Engine
	model     Model
	listeners middleware.Listeners

	batches map[string]*batch
	// queue is the global FIFO of pending tasks; priority holds tasks
	// requeued after a detected failure under Model.RequeueFirst and is
	// served first (it stays empty otherwise).
	priority middleware.Pending[*xtask]
	queue    middleware.Pending[*xtask]

	attached map[*middleware.Worker]*workerState
	idle     *middleware.IdleSet

	reschedule bool

	// barren is dispatch's per-round scratch memo of batches with no
	// eligible work, reused across rounds to avoid per-tick allocation.
	barren map[string]bool

	// Registered op handlers: event scheduling on the hot path carries an
	// arena payload instead of allocating a closure.
	opArrive sim.Op // Payload.A = *xtask
	opDone   sim.Op // Payload.A = *exec: the execution's result arrives
	opDetect sim.Op // Payload.A = *exec: DetectDelay elapsed since loss
}

type batch struct {
	spec      middleware.Batch
	size      int
	arrived   int
	completed int
	assigned  int // tasks ever assigned (monotone)
	tasks     []*xtask
	// byID resolves a task by its spec ID: IDs are batch-unique but not
	// slice indexes when the batch is a subset (Cloud Duplication submits
	// only the incomplete tasks to the cloud server).
	byID map[int]*xtask
	// priority and queue are the batch's views of the server's two queues:
	// what a worker dedicated to the batch is served from.
	priority middleware.PendingView[*xtask]
	queue    middleware.PendingView[*xtask]
	done     bool
	// running counts assigned, not yet completed tasks that are not back in
	// a queue; it short-circuits Reschedule work scans.
	running int
}

type xtask struct {
	batch     *batch
	spec      bot.Task
	arrived   bool
	completed bool
	assigned  bool // ever assigned
	queued    bool
	// remaining is the work left, in instructions. It only ever drops below
	// spec.NOps when a checkpoint preserved progress across a worker loss.
	remaining float64
	execs     map[*middleware.Worker]*exec
}

// Queued implements middleware.Queueable.
func (t *xtask) Queued() bool { return t.queued }

// cloudDups counts in-flight cloud executions of the task.
func (t *xtask) cloudDups() int {
	n := 0
	for w := range t.execs {
		if w.Cloud {
			n++
		}
	}
	return n
}

type exec struct {
	w      *middleware.Worker
	t      *xtask
	doneEv sim.Event
	// startedAt and startRemaining let the checkpoint logic compute the
	// preserved progress when the worker is lost.
	startedAt      float64
	startRemaining float64
	dead           bool // worker left; awaiting failure detection
}

type workerState struct{ cur *xtask }

// NewModel creates a single-execution server on the engine. It is the seam
// between this package's New and package condor's New, not a third way to
// build a middleware: a Model has no defaults and no validation.
func NewModel(eng *sim.Engine, m Model) *Server {
	s := &Server{
		eng:      eng,
		model:    m,
		batches:  map[string]*batch{},
		attached: map[*middleware.Worker]*workerState{},
		idle:     middleware.NewIdleSet(),
		barren:   map[string]bool{},
	}
	s.opArrive = eng.RegisterOp(func(p sim.Payload) { s.arrive(p.A.(*xtask)) })
	s.opDone = eng.RegisterOp(func(p sim.Payload) {
		ex := p.A.(*exec)
		s.complete(ex.w, ex.t)
	})
	s.opDetect = eng.RegisterOp(func(p sim.Payload) { s.detect(p.A.(*exec)) })
	return s
}

// MiddlewareName implements middleware.Server.
func (s *Server) MiddlewareName() string { return s.model.Name }

// AddListener implements middleware.Server.
func (s *Server) AddListener(l middleware.Listener) { s.listeners = append(s.listeners, l) }

// SetReschedule implements middleware.Server.
func (s *Server) SetReschedule(enabled bool) { s.reschedule = enabled }

// Submit implements middleware.Server.
func (s *Server) Submit(b middleware.Batch) {
	if _, ok := s.batches[b.ID]; ok {
		panic(fmt.Sprintf("%s: duplicate batch %q", s.model.Name, b.ID))
	}
	bt := &batch{spec: b, size: len(b.Tasks), byID: make(map[int]*xtask, len(b.Tasks))}
	s.batches[b.ID] = bt
	for _, spec := range b.Tasks {
		t := newTask(bt, spec)
		bt.tasks = append(bt.tasks, t)
		bt.byID[spec.ID] = t
		s.eng.AfterOp(spec.Arrival, s.opArrive, sim.Payload{A: t})
	}
}

func newTask(bt *batch, spec bot.Task) *xtask {
	return &xtask{batch: bt, spec: spec, remaining: spec.NOps, execs: map[*middleware.Worker]*exec{}}
}

// arrive makes a task visible to the scheduler at its arrival time.
func (s *Server) arrive(t *xtask) {
	t.arrived = true
	t.batch.arrived++
	if t.completed {
		// A result merged in before the arrival (MarkCompleted): the task
		// counts as arrived but is never queued, or it would run again.
		return
	}
	t.queued = true
	s.queue.Push(t, &t.batch.queue)
	s.dispatch()
}

// WorkerJoin implements middleware.Server.
func (s *Server) WorkerJoin(w *middleware.Worker) {
	if _, ok := s.attached[w]; ok {
		return
	}
	s.attached[w] = &workerState{}
	s.idle.Add(w)
	s.dispatch()
}

// WorkerLeave implements middleware.Server. The computation in flight is
// lost back to its last checkpoint, if the model has any; the server
// notices the loss DetectDelay later and requeues the task.
func (s *Server) WorkerLeave(w *middleware.Worker) {
	st, ok := s.attached[w]
	if !ok {
		return
	}
	delete(s.attached, w)
	s.idle.Remove(w)
	if st.cur == nil {
		return
	}
	t := st.cur
	ex := t.execs[w]
	if ex == nil {
		return
	}
	s.eng.Cancel(ex.doneEv)
	ex.dead = true
	if period := s.model.CheckpointPeriod; period > 0 {
		// Work preserved: progress since assignment, rounded down to the
		// last checkpoint.
		ckpts := int((s.eng.Now() - ex.startedAt) / period)
		preserved := float64(ckpts) * period * w.Power
		t.remaining = min(t.remaining, max(ex.startRemaining-preserved, 0))
	}
	s.eng.AfterOp(s.model.DetectDelay, s.opDetect, sim.Payload{A: ex})
}

// detect fires when the server notices a lost worker: the execution is
// abandoned and, if it was the task's last one, the task is requeued.
func (s *Server) detect(ex *exec) {
	t := ex.t
	if t.completed || t.execs[ex.w] != ex {
		return
	}
	delete(t.execs, ex.w)
	if len(t.execs) == 0 && !t.queued {
		t.batch.running--
		t.queued = true
		if s.model.RequeueFirst {
			s.priority.Push(t, &t.batch.priority)
		} else {
			s.queue.Push(t, &t.batch.queue)
		}
		s.dispatch()
	}
}

// dispatch pairs idle workers with assignable work until no pair remains.
func (s *Server) dispatch() {
	for {
		hasQueued := !s.priority.Empty() || !s.queue.Empty()
		wantCloudDup := s.reschedule && s.idle.CloudCount() > 0 && s.anyDupCandidate()
		if !hasQueued && !wantCloudDup {
			return
		}
		// Memoize batches found to have no eligible work this round so a
		// fleet of same-batch cloud workers costs one scan, not N.
		clear(s.barren)
		barren := s.barren
		w := s.idle.Pick(func(w *middleware.Worker) bool {
			if barren[w.DedicatedBatch] {
				return false
			}
			if !hasQueued && !(w.Cloud && w.DedicatedBatch != "") {
				return false
			}
			if s.peekTask(w) == nil {
				barren[w.DedicatedBatch] = true
				return false
			}
			return true
		})
		if w == nil {
			return
		}
		t := s.peekTask(w)
		if t == nil {
			// Race cannot happen (single-threaded), but stay safe.
			s.idle.Add(w)
			return
		}
		s.assign(w, t)
	}
}

// anyDupCandidate reports whether a Reschedule duplicate could be created.
func (s *Server) anyDupCandidate() bool {
	for _, bt := range s.batches {
		if !bt.done && bt.running > 0 {
			return true
		}
	}
	return false
}

// anyTask is the filter of a worker that takes whatever is queued.
func anyTask(*xtask) bool { return true }

// firstQueued returns the first queued task the worker may take, requeued
// tasks first: a dedicated worker's from its batch's views of the two queues,
// a free worker's from the queues' heads.
func (s *Server) firstQueued(w *middleware.Worker) *xtask {
	if w.DedicatedBatch == "" {
		if t := s.priority.First(anyTask); t != nil {
			return t
		}
		return s.queue.First(anyTask)
	}
	bt := s.batches[w.DedicatedBatch]
	if bt == nil {
		return nil
	}
	if t := s.priority.FirstIn(&bt.priority, anyTask); t != nil {
		return t
	}
	return s.queue.FirstIn(&bt.queue, anyTask)
}

// peekTask returns the task the worker would execute, without dequeuing.
func (s *Server) peekTask(w *middleware.Worker) *xtask {
	if t := s.firstQueued(w); t != nil {
		return t
	}
	if s.reschedule && w.Cloud && w.DedicatedBatch != "" {
		// Reschedule (§3.5): serve the cloud worker a duplicate of a
		// running task. Cloud workers stay busy until the batch completes
		// (Fig 5 commentary); least-duplicated tasks first, skipping
		// tasks this worker already executes.
		bt := s.batches[w.DedicatedBatch]
		if bt == nil {
			return nil
		}
		var best *xtask
		bestDups := 0
		for _, t := range bt.tasks {
			if t.completed || !t.arrived || t.queued || len(t.execs) == 0 || t.execs[w] != nil {
				continue
			}
			dups := t.cloudDups()
			if best == nil || dups < bestDups {
				best, bestDups = t, dups
				if dups == 0 {
					break
				}
			}
		}
		return best
	}
	return nil
}

func (s *Server) assign(w *middleware.Worker, t *xtask) {
	st := s.attached[w]
	if st == nil || st.cur != nil {
		panic(s.model.Name + ": assigning to busy or detached worker")
	}
	st.cur = t
	if t.queued {
		t.queued = false
		t.batch.running++
	}
	if !t.assigned {
		t.assigned = true
		t.batch.assigned++
		s.listeners.TaskAssigned(t.batch.spec.ID, t.spec.ID, s.eng.Now())
	}
	ex := &exec{w: w, t: t, startedAt: s.eng.Now(), startRemaining: t.remaining}
	t.execs[w] = ex
	dur := t.remaining / w.Power
	ex.doneEv = s.eng.AfterOp(dur, s.opDone, sim.Payload{A: ex})
}

// complete handles a result arriving from worker w for task t.
func (s *Server) complete(w *middleware.Worker, t *xtask) {
	if st := s.attached[w]; st != nil && st.cur == t {
		st.cur = nil
		s.idle.Add(w)
	}
	delete(t.execs, w)
	if !t.completed {
		s.finish(t, w)
	}
	s.dispatch()
}

// finish marks t completed, cancels duplicate executions and frees their
// workers. by is the worker whose result completed the task (nil for
// externally-merged results).
func (s *Server) finish(t *xtask, by *middleware.Worker) {
	bt := t.batch
	if !t.queued && t.assigned {
		bt.running--
	}
	t.completed = true
	t.queued = false
	bt.completed++
	now := s.eng.Now()
	s.listeners.TaskCompleted(bt.spec.ID, t.spec.ID, now)
	s.listeners.NotifyExecutedBy(bt.spec.ID, t.spec.ID, by, now)
	// Iterate executions in worker-ID order: map order would leak
	// nondeterminism into the idle queue and break seed reproducibility.
	for _, w := range sortedExecWorkers(t.execs) {
		ex := t.execs[w]
		s.eng.Cancel(ex.doneEv)
		delete(t.execs, w)
		if ex.dead {
			continue
		}
		if st := s.attached[w]; st != nil && st.cur == t {
			st.cur = nil
			s.idle.Add(w)
		}
	}
	if bt.completed >= bt.size && !bt.done {
		bt.done = true
		s.listeners.BatchCompleted(bt.spec.ID, now)
	}
}

// MarkCompleted implements middleware.Server (result merging for Cloud
// Duplication). Tasks are resolved by spec ID, which stays correct when
// the batch is a subset whose IDs are not dense slice indexes.
func (s *Server) MarkCompleted(batchID string, taskID int) {
	bt := s.batches[batchID]
	if bt == nil {
		return
	}
	t := bt.byID[taskID]
	if t == nil || t.completed {
		return
	}
	s.finish(t, nil)
	s.dispatch()
}

// Progress implements middleware.Server.
func (s *Server) Progress(batchID string) middleware.Progress {
	bt := s.batches[batchID]
	if bt == nil {
		return middleware.Progress{}
	}
	running, queued := 0, 0
	for _, t := range bt.tasks {
		switch {
		case t.completed || !t.arrived:
		case len(t.execs) > 0:
			running++
		case t.queued:
			queued++
		}
	}
	return middleware.Progress{
		Size:         bt.size,
		Arrived:      bt.arrived,
		Completed:    bt.completed,
		EverAssigned: bt.assigned,
		Running:      running,
		Queued:       queued,
		Workers:      len(s.attached),
	}
}

// Done implements middleware.Server.
func (s *Server) Done(batchID string) bool {
	bt := s.batches[batchID]
	return bt != nil && bt.done
}

// Incomplete implements middleware.Server.
func (s *Server) Incomplete(batchID string) []bot.Task {
	bt := s.batches[batchID]
	if bt == nil {
		return nil
	}
	var out []bot.Task
	for _, t := range bt.tasks {
		if !t.completed {
			spec := t.spec
			spec.Arrival = 0
			out = append(out, spec)
		}
	}
	return out
}

var _ middleware.Server = (*Server)(nil)

// WorkerBusy implements middleware.Server.
func (s *Server) WorkerBusy(w *middleware.Worker) bool {
	st := s.attached[w]
	return st != nil && st.cur != nil
}

// sortedExecWorkers returns the execution map's workers in ID order.
func sortedExecWorkers(execs map[*middleware.Worker]*exec) []*middleware.Worker {
	out := make([]*middleware.Worker, 0, len(execs))
	for w := range execs {
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
