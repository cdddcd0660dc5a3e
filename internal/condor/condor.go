// Package condor simulates a Condor-style Desktop Grid middleware — the
// third volatility-handling mechanism alongside BOINC (replication +
// deadlines) and XWHEP (heartbeats + restart). The paper notes "Condor and
// OurGrid would have also been excellent candidates" (§2.2); this package
// makes the comparison possible.
//
// Condor's model, as simulated here:
//
//   - A central manager polls execution machines periodically (the
//     condor_startd ClassAd updates), so failures are detected within one
//     poll interval rather than via task deadlines.
//   - The standard universe checkpoints jobs: when a machine is reclaimed
//     or fails, the job migrates and resumes from its last periodic
//     checkpoint on the next available machine, losing at most the work
//     since that checkpoint.
//
// No replication: like XWHEP, each task runs once; unlike XWHEP, work
// survives machine loss (up to the checkpoint lag).
package condor

import (
	"fmt"
	"sort"

	"spequlos/internal/bot"
	"spequlos/internal/middleware"
	"spequlos/internal/sim"
)

// Config carries the Condor pool parameters.
type Config struct {
	// PollInterval is the central-manager status poll period: the upper
	// bound on failure-detection latency.
	PollInterval float64
	// CheckpointPeriod is the periodic checkpoint interval of the standard
	// universe: the maximum work lost on a migration.
	CheckpointPeriod float64
}

// DefaultConfig returns a conventional pool configuration: 5-minute
// ClassAd updates, 15-minute periodic checkpoints.
func DefaultConfig() Config {
	return Config{PollInterval: 300, CheckpointPeriod: 900}
}

// Server is a Condor central manager + schedd simulation. It implements
// middleware.Server.
type Server struct {
	eng       *sim.Engine
	cfg       Config
	listeners middleware.Listeners

	batches  map[string]*batch
	queue    fifo
	attached map[*middleware.Worker]*workerState
	idle     *middleware.IdleSet

	reschedule bool

	// barren is dispatch's per-round scratch memo of batches with no
	// eligible work, reused across rounds to avoid per-tick allocation.
	barren map[string]bool

	// Registered op handlers: event scheduling on the hot path carries an
	// arena payload instead of allocating a closure.
	opArrive sim.Op // Payload.A = *ctask
	opDone   sim.Op // Payload.A = *exec: the job finishes on its machine
	opDetect sim.Op // Payload.A = *exec: next ClassAd poll notices the loss
}

type batch struct {
	spec      middleware.Batch
	size      int
	arrived   int
	completed int
	assigned  int
	tasks     []*ctask
	// byID resolves a task by its spec ID: IDs are batch-unique but not
	// slice indexes once the batch is a partition subset or barrier
	// rebalances moved tasks in.
	byID map[int]*ctask
	done bool
	// freeQueued counts queued, never-assigned tasks — the ones TakeQueued
	// may hand to a sibling pool partition.
	freeQueued int
	running    int
}

type ctask struct {
	batch     *batch
	spec      bot.Task
	arrived   bool
	completed bool
	assigned  bool
	queued    bool
	// moved marks a task handed to a sibling partition (TakeQueued): it
	// stays in the slice for fifo lazy removal but no longer counts.
	moved bool
	// remaining is the work left (seconds at power 1, i.e. instructions):
	// checkpoints preserve progress across migrations.
	remaining float64
	execs     map[*middleware.Worker]*exec
}

func (t *ctask) cloudDups() int {
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
	t      *ctask
	doneEv sim.Event
	// startedAt and startRemaining let the checkpoint logic compute the
	// preserved progress when the machine is lost.
	startedAt      float64
	startRemaining float64
	dead           bool
}

type workerState struct{ cur *ctask }

type fifo struct {
	items []*ctask
	head  int
}

func (f *fifo) push(t *ctask) { f.items = append(f.items, t) }
func (f *fifo) advance() {
	for f.head < len(f.items) && !f.items[f.head].queued {
		f.items[f.head] = nil
		f.head++
	}
	if f.head > 64 && f.head*2 > len(f.items) {
		f.items = append(f.items[:0], f.items[f.head:]...)
		f.head = 0
	}
}
func (f *fifo) empty() bool {
	f.advance()
	return f.head >= len(f.items)
}
func (f *fifo) first(match func(*ctask) bool) *ctask {
	f.advance()
	for i := f.head; i < len(f.items); i++ {
		t := f.items[i]
		if t != nil && t.queued && match(t) {
			return t
		}
	}
	return nil
}

// New creates a Condor pool on the engine.
func New(eng *sim.Engine, cfg Config) *Server {
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 300
	}
	if cfg.CheckpointPeriod <= 0 {
		cfg.CheckpointPeriod = 900
	}
	s := &Server{
		eng:      eng,
		cfg:      cfg,
		batches:  map[string]*batch{},
		attached: map[*middleware.Worker]*workerState{},
		idle:     middleware.NewIdleSet(),
		barren:   map[string]bool{},
	}
	s.opArrive = eng.RegisterOp(func(p sim.Payload) { s.arrive(p.A.(*ctask)) })
	s.opDone = eng.RegisterOp(func(p sim.Payload) {
		ex := p.A.(*exec)
		s.complete(ex.w, ex.t)
	})
	s.opDetect = eng.RegisterOp(func(p sim.Payload) { s.detect(p.A.(*exec)) })
	return s
}

// MiddlewareName implements middleware.Server.
func (s *Server) MiddlewareName() string { return "CONDOR" }

// AddListener implements middleware.Server.
func (s *Server) AddListener(l middleware.Listener) { s.listeners = append(s.listeners, l) }

// SetReschedule implements middleware.Server.
func (s *Server) SetReschedule(enabled bool) { s.reschedule = enabled }

// Submit implements middleware.Server.
func (s *Server) Submit(b middleware.Batch) {
	if _, ok := s.batches[b.ID]; ok {
		panic(fmt.Sprintf("condor: duplicate batch %q", b.ID))
	}
	bt := &batch{spec: b, size: len(b.Tasks), byID: make(map[int]*ctask, len(b.Tasks))}
	s.batches[b.ID] = bt
	for _, spec := range b.Tasks {
		t := &ctask{batch: bt, spec: spec, remaining: spec.NOps, execs: map[*middleware.Worker]*exec{}}
		bt.tasks = append(bt.tasks, t)
		bt.byID[spec.ID] = t
		s.eng.AfterOp(spec.Arrival, s.opArrive, sim.Payload{A: t})
	}
}

// arrive makes a job visible to the schedd at its arrival time.
func (s *Server) arrive(t *ctask) {
	t.arrived = true
	t.batch.arrived++
	if t.completed {
		// A result merged in before the arrival (MarkCompleted): the job
		// counts as arrived but is never queued, or it would run again.
		return
	}
	t.queued = true
	t.batch.freeQueued++
	s.queue.push(t)
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

// WorkerLeave implements middleware.Server. The job's progress up to its
// last periodic checkpoint survives; the central manager notices the
// machine's disappearance within one poll interval and requeues the job
// for migration.
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
	// Work preserved: progress since assignment, rounded down to the last
	// checkpoint.
	elapsed := s.eng.Now() - ex.startedAt
	ckpts := int(elapsed / s.cfg.CheckpointPeriod)
	preserved := float64(ckpts) * s.cfg.CheckpointPeriod * w.Power
	rem := ex.startRemaining - preserved
	if rem < 0 {
		rem = 0
	}
	if rem < t.remaining {
		t.remaining = rem
	}
	detectAt := s.cfg.PollInterval / 2 // expected latency of the next poll
	s.eng.AfterOp(detectAt, s.opDetect, sim.Payload{A: ex})
}

// detect fires when the central manager's poll notices a lost machine: the
// execution is abandoned and, if it was the job's last one, the job is
// requeued for migration.
func (s *Server) detect(ex *exec) {
	t := ex.t
	if t.completed || t.execs[ex.w] != ex {
		return
	}
	delete(t.execs, ex.w)
	if len(t.execs) == 0 && !t.queued {
		t.batch.running--
		t.queued = true
		s.queue.push(t)
		s.dispatch()
	}
}

func (s *Server) dispatch() {
	for {
		hasQueued := !s.queue.empty()
		wantCloudDup := s.reschedule && s.idle.CloudCount() > 0 && s.anyDupCandidate()
		if !hasQueued && !wantCloudDup {
			return
		}
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
			s.idle.Add(w)
			return
		}
		s.assign(w, t)
	}
}

func (s *Server) anyDupCandidate() bool {
	for _, bt := range s.batches {
		if !bt.done && bt.running > 0 {
			return true
		}
	}
	return false
}

func (s *Server) peekTask(w *middleware.Worker) *ctask {
	match := func(t *ctask) bool {
		return w.DedicatedBatch == "" || t.batch.spec.ID == w.DedicatedBatch
	}
	if t := s.queue.first(match); t != nil {
		return t
	}
	if s.reschedule && w.Cloud && w.DedicatedBatch != "" {
		bt := s.batches[w.DedicatedBatch]
		if bt == nil {
			return nil
		}
		var best *ctask
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

func (s *Server) assign(w *middleware.Worker, t *ctask) {
	st := s.attached[w]
	if st == nil || st.cur != nil {
		panic("condor: assigning to busy or detached worker")
	}
	st.cur = t
	if t.queued && !t.assigned {
		t.batch.freeQueued--
	}
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

func (s *Server) complete(w *middleware.Worker, t *ctask) {
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

func (s *Server) finish(t *ctask, by *middleware.Worker) {
	bt := t.batch
	if !t.queued && t.assigned {
		bt.running--
	}
	if t.queued && !t.assigned {
		bt.freeQueued--
	}
	t.completed = true
	t.queued = false
	t.remaining = 0
	bt.completed++
	now := s.eng.Now()
	s.listeners.TaskCompleted(bt.spec.ID, t.spec.ID, now)
	s.listeners.NotifyExecutedBy(bt.spec.ID, t.spec.ID, by, now)
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

// MarkCompleted implements middleware.Server. Tasks are resolved by spec
// ID, which stays correct when the batch is a partition subset whose IDs
// are not dense slice indexes.
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
		Size: bt.size, Arrived: bt.arrived, Completed: bt.completed,
		EverAssigned: bt.assigned, Running: running, Queued: queued,
		Workers: len(s.attached),
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
		if !t.completed && !t.moved {
			spec := t.spec
			spec.Arrival = 0
			out = append(out, spec)
		}
	}
	return out
}

// IdleWorkers implements middleware.TaskMover.
func (s *Server) IdleWorkers() int { return s.idle.Len() }

// QueuedFree implements middleware.TaskMover.
func (s *Server) QueuedFree(batchID string) int {
	bt := s.batches[batchID]
	if bt == nil {
		return 0
	}
	return bt.freeQueued
}

// TakeQueued implements middleware.TaskMover: it extracts up to n queued,
// never-assigned jobs — never assigned means no checkpoints exist and
// remaining still equals the spec's work, so removal is exact — and stops
// counting them toward the batch.
func (s *Server) TakeQueued(batchID string, n int) []bot.Task {
	bt := s.batches[batchID]
	if bt == nil || n <= 0 {
		return nil
	}
	var out []bot.Task
	for _, t := range bt.tasks {
		if len(out) >= n {
			break
		}
		if t.moved || t.completed || !t.arrived || !t.queued || t.assigned {
			continue
		}
		t.moved = true
		t.queued = false
		bt.freeQueued--
		bt.size--
		bt.arrived--
		delete(bt.byID, t.spec.ID)
		spec := t.spec
		spec.Arrival = 0
		out = append(out, spec)
	}
	return out
}

// AddTasks implements middleware.TaskMover: the specs join the batch as
// already-arrived queued jobs and dispatch immediately.
func (s *Server) AddTasks(batchID string, tasks []bot.Task) {
	bt := s.batches[batchID]
	if bt == nil || len(tasks) == 0 {
		return
	}
	for _, spec := range tasks {
		t := &ctask{batch: bt, spec: spec, remaining: spec.NOps, execs: map[*middleware.Worker]*exec{}}
		t.arrived = true
		t.queued = true
		bt.tasks = append(bt.tasks, t)
		bt.byID[spec.ID] = t
		bt.size++
		bt.arrived++
		bt.freeQueued++
		s.queue.push(t)
	}
	s.dispatch()
}

var _ middleware.TaskMover = (*Server)(nil)

// WorkerBusy implements middleware.Server.
func (s *Server) WorkerBusy(w *middleware.Worker) bool {
	st := s.attached[w]
	return st != nil && st.cur != nil
}

func sortedExecWorkers(execs map[*middleware.Worker]*exec) []*middleware.Worker {
	out := make([]*middleware.Worker, 0, len(execs))
	for w := range execs {
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

var _ middleware.Server = (*Server)(nil)
