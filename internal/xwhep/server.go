package xwhep

import (
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
// It implements middleware.Server: everything but the handling of volatile
// hosts is the embedded frame's.
type Server struct {
	*frame
	model Model
	// queue is the global FIFO of pending tasks; priority holds tasks
	// requeued after a detected failure under Model.RequeueFirst and is
	// served first (it stays empty otherwise).
	priority middleware.Pending[*xtask]
	queue    middleware.Pending[*xtask]

	opDetect sim.Op // Payload.A = *exec: DetectDelay elapsed since loss
}

type (
	frame = middleware.Frame[work, run, queueViews]
	batch = middleware.BatchState[work, run, queueViews]
	xtask = middleware.Task[work, run, queueViews]
	exec  = middleware.Exec[work, run, queueViews]
)

// queueViews are the batch's views of the server's two queues: what a worker
// dedicated to the batch is served from.
type queueViews struct {
	priority middleware.PendingView[*xtask]
	queue    middleware.PendingView[*xtask]
}

// work is what is left of a task.
type work struct {
	// remaining is the work left, in instructions. It only ever drops below
	// Spec.NOps when a checkpoint preserved progress across a worker loss.
	remaining float64
}

// run lets the checkpoint logic compute the progress preserved when the
// execution's worker is lost.
type run struct {
	startedAt      float64
	startRemaining float64
}

// NewModel creates a single-execution server on the engine. It is the seam
// between this package's New and package condor's New, not a third way to
// build a middleware: a Model has no defaults and no validation.
func NewModel(eng *sim.Engine, m Model) *Server {
	s := &Server{model: m}
	s.frame = middleware.NewFrame[work, run, queueViews](eng, m.Name, s)
	s.opDetect = eng.RegisterOp(func(p sim.Payload) { s.detect(p.A.(*exec)) })
	return s
}

var _ middleware.Server = (*Server)(nil)

// Enqueue implements middleware.Mechanism.
func (s *Server) Enqueue(t *xtask) {
	t.M.remaining = t.Spec.NOps
	s.queue.Push(t, &t.Batch.M.queue)
}

// HasQueued implements middleware.Mechanism.
func (s *Server) HasQueued() bool { return !s.priority.Empty() || !s.queue.Empty() }

// anyTask is the filter of a worker that takes whatever is queued.
func anyTask(*xtask) bool { return true }

// FirstQueued implements middleware.Mechanism, requeued tasks first: a
// dedicated worker is served from its batch's views of the two queues, a free
// worker from the queues' heads.
func (s *Server) FirstQueued(w *middleware.Worker, bt *batch) *xtask {
	if bt == nil {
		if t := s.priority.First(anyTask); t != nil {
			return t
		}
		return s.queue.First(anyTask)
	}
	if t := s.priority.FirstIn(&bt.M.priority, anyTask); t != nil {
		return t
	}
	return s.queue.FirstIn(&bt.M.queue, anyTask)
}

// MayDuplicate implements middleware.Mechanism: Reschedule duplicates running
// tasks, skipping those this worker already executes.
func (s *Server) MayDuplicate(w *middleware.Worker, t *xtask) bool {
	return t.Running() && t.ExecOn(w) == nil
}

// WorkerJoin implements middleware.Server.
func (s *Server) WorkerJoin(w *middleware.Worker) {
	if s.Attach(w) {
		s.Offer(w)
	}
}

// WorkerLeave implements middleware.Server. The computation in flight is
// lost back to its last checkpoint, if the model has any; the server
// notices the loss DetectDelay later and requeues the task.
func (s *Server) WorkerLeave(w *middleware.Worker) {
	ex := s.Detach(w)
	if ex == nil {
		return
	}
	if period := s.model.CheckpointPeriod; period > 0 {
		// Work preserved: progress since assignment, rounded down to the
		// last checkpoint.
		t := ex.Task
		ckpts := int((s.Eng.Now() - ex.M.startedAt) / period)
		preserved := float64(ckpts) * period * w.Power
		t.M.remaining = min(t.M.remaining, max(ex.M.startRemaining-preserved, 0))
	}
	s.Eng.AfterOp(s.model.DetectDelay, s.opDetect, sim.Payload{A: ex})
}

// detect fires when the server notices a lost worker: the execution is
// abandoned and, if it was the task's last one, the task is requeued.
func (s *Server) detect(ex *exec) {
	t := ex.Task
	if t.Completed() || t.ExecOn(ex.W) != ex {
		return
	}
	t.DropExec(ex.W)
	if t.NumExecs() == 0 && !t.Queued() {
		t.SetRunning(false)
		t.SetQueued(true)
		if s.model.RequeueFirst {
			s.priority.Push(t, &t.Batch.M.priority)
		} else {
			s.queue.Push(t, &t.Batch.M.queue)
		}
		s.Dispatch()
	}
}

// Start implements middleware.Mechanism: the task leaves the queue (a
// Reschedule duplicate was not in it) and runs what is left of it.
func (s *Server) Start(ex *exec) {
	t := ex.Task
	if t.Queued() {
		t.SetQueued(false)
		t.SetRunning(true)
	}
	ex.M = run{startedAt: s.Eng.Now(), startRemaining: t.M.remaining}
	s.Run(ex, t.M.remaining/ex.W.Power)
}

// Result implements middleware.Mechanism: the first result completes the task.
func (s *Server) Result(*exec) bool { return true }
