// Package boinc simulates the BOINC volunteer-computing middleware. BOINC
// handles host volatility with task replication and deadlines (§2.2,
// §4.1.3): every task (workunit) is issued as target_nresult replicas,
// completes once min_quorum results are returned, never runs two replicas
// on the same worker, and reissues replicas whose results have not arrived
// delay_bound seconds after assignment. The server learns about lost hosts
// only through those deadlines, which is why BOINC's baseline tail is
// heavier than XWHEP's (Fig 2).
package boinc

import (
	"fmt"
	"sort"

	"spequlos/internal/bot"
	"spequlos/internal/middleware"
	"spequlos/internal/sim"
)

// Config carries the standard BOINC server parameters (§4.1.3).
type Config struct {
	// TargetNResults is the number of replicas issued per workunit
	// (target_nresult).
	TargetNResults int
	// MinQuorum is the number of results required to complete a workunit
	// (min_quorum).
	MinQuorum int
	// DelayBound is the per-replica deadline: a replica whose result has
	// not arrived DelayBound seconds after assignment is reissued
	// (delay_bound).
	DelayBound float64
	// OneResultPerWorker forbids a worker from concurrently executing, or
	// contributing more than one result to, the same workunit
	// (one_result_per_user_per_wu).
	OneResultPerWorker bool
}

// DefaultConfig returns the paper's simulation parameters:
// target_nresult=3, min_quorum=2, delay_bound=86400,
// one_result_per_user_per_wu=1.
func DefaultConfig() Config {
	return Config{TargetNResults: 3, MinQuorum: 2, DelayBound: 86400, OneResultPerWorker: true}
}

// Server is a BOINC server simulation. It implements middleware.Server.
type Server struct {
	eng       *sim.Engine
	cfg       Config
	listeners middleware.Listeners

	batches  map[string]*batch
	pending  middleware.Pending[*workunit]
	attached map[*middleware.Worker]*workerState
	idle     *middleware.IdleSet
	// paused holds checkpointed executions of currently-offline hosts,
	// resumed if the host returns.
	paused map[*middleware.Worker]*exec

	reschedule bool

	// barren is dispatch's per-round scratch memo of batches with no
	// eligible work, reused across rounds to avoid per-tick allocation.
	barren map[string]bool

	// Registered op handlers: scheduling an op event carries only an arena
	// payload, so the server's hot path allocates no closures.
	opArrive   sim.Op // Payload.A = *workunit
	opDone     sim.Op // Payload.A = *exec: the replica's result arrives
	opDeadline sim.Op // Payload.A = *exec: delay_bound expired
}

type batch struct {
	spec      middleware.Batch
	size      int
	arrived   int
	completed int
	assigned  int // workunits ever assigned (monotone)
	wus       []*workunit
	// byID resolves a workunit by its spec ID: IDs are batch-unique but
	// not slice indexes when the batch is a subset (Cloud Duplication
	// submits only the incomplete tasks to the cloud server).
	byID map[int]*workunit
	// pending is the batch's view of the server's pending queue: what a
	// worker dedicated to the batch is served from.
	pending middleware.PendingView[*workunit]
	done    bool
	running int // workunits with at least one live-or-believed replica
}

type workunit struct {
	batch   *batch
	spec    bot.Task
	arrived bool
	// unsent is the number of created-but-unassigned replicas.
	unsent int
	// active counts replicas the server believes are executing (results
	// pending, deadline not reached). Dead hosts stay counted until their
	// deadline — BOINC cannot tell.
	active int
	// results is the number of successful results received.
	results int
	// contributed tracks workers that returned a result or currently hold
	// a replica (one_result_per_user_per_wu).
	holders   map[int]bool
	returned  map[int]bool
	completed bool
	assigned  bool // ever assigned
	queued    bool // present in the pending queue with unsent > 0
	execs     map[*middleware.Worker]*exec
}

// Queued implements middleware.Queueable.
func (wu *workunit) Queued() bool { return wu.queued }

// cloudReplicas counts in-flight cloud replicas of the workunit.
func (wu *workunit) cloudReplicas() int {
	n := 0
	for w := range wu.execs {
		if w.Cloud {
			n++
		}
	}
	return n
}

type exec struct {
	w      *middleware.Worker
	wu     *workunit
	doneEv sim.Event
	// settled is set when the server has accounted for this replica's
	// outcome: either its result arrived or its deadline expired. It keeps
	// the active-replica count exact when deadlines, late results, host
	// deaths and rejoins interleave.
	settled bool
	// Checkpointing state: BOINC clients checkpoint their computation, so
	// a host that goes offline resumes where it left off when it returns
	// (unlike XWHEP, whose workers lose their task). remaining is the
	// compute time left; resumedAt when the current burst started.
	remaining float64
	resumedAt float64
	paused    bool
}

// setActive adjusts the believed-active replica count, maintaining the
// batch's running-workunit counter on 0↔positive transitions.
func (s *Server) setActive(wu *workunit, delta int) {
	was := wu.active > 0
	wu.active += delta
	if wu.active < 0 {
		wu.active = 0
	}
	now := wu.active > 0
	if !was && now {
		wu.batch.running++
	} else if was && !now {
		wu.batch.running--
	}
}

type workerState struct {
	cur *workunit
}

// New creates a BOINC server on the engine.
func New(eng *sim.Engine, cfg Config) *Server {
	if cfg.TargetNResults <= 0 {
		cfg.TargetNResults = 3
	}
	if cfg.MinQuorum <= 0 {
		cfg.MinQuorum = 2
	}
	if cfg.MinQuorum > cfg.TargetNResults {
		panic(fmt.Sprintf("boinc: min_quorum %d > target_nresults %d", cfg.MinQuorum, cfg.TargetNResults))
	}
	if cfg.DelayBound <= 0 {
		cfg.DelayBound = 86400
	}
	s := &Server{
		eng:      eng,
		cfg:      cfg,
		batches:  map[string]*batch{},
		attached: map[*middleware.Worker]*workerState{},
		idle:     middleware.NewIdleSet(),
		barren:   map[string]bool{},
		paused:   map[*middleware.Worker]*exec{},
	}
	s.opArrive = eng.RegisterOp(func(p sim.Payload) { s.arrive(p.A.(*workunit)) })
	s.opDone = eng.RegisterOp(func(p sim.Payload) {
		ex := p.A.(*exec)
		s.returnResult(ex.w, ex.wu, ex)
	})
	s.opDeadline = eng.RegisterOp(func(p sim.Payload) {
		ex := p.A.(*exec)
		s.deadline(ex.wu, ex)
	})
	return s
}

// MiddlewareName implements middleware.Server.
func (s *Server) MiddlewareName() string { return "BOINC" }

// AddListener implements middleware.Server.
func (s *Server) AddListener(l middleware.Listener) { s.listeners = append(s.listeners, l) }

// SetReschedule implements middleware.Server.
func (s *Server) SetReschedule(enabled bool) { s.reschedule = enabled }

// Submit implements middleware.Server.
func (s *Server) Submit(b middleware.Batch) {
	if _, ok := s.batches[b.ID]; ok {
		panic(fmt.Sprintf("boinc: duplicate batch %q", b.ID))
	}
	bt := &batch{spec: b, size: len(b.Tasks), byID: make(map[int]*workunit, len(b.Tasks))}
	s.batches[b.ID] = bt
	for _, spec := range b.Tasks {
		wu := &workunit{
			batch: bt, spec: spec,
			holders: map[int]bool{}, returned: map[int]bool{},
			execs: map[*middleware.Worker]*exec{},
		}
		bt.wus = append(bt.wus, wu)
		bt.byID[spec.ID] = wu
		s.eng.AfterOp(spec.Arrival, s.opArrive, sim.Payload{A: wu})
	}
}

// arrive makes a workunit visible to the scheduler at its arrival time.
func (s *Server) arrive(wu *workunit) {
	wu.arrived = true
	wu.batch.arrived++
	if wu.completed {
		// A result merged in before the arrival (MarkCompleted): the workunit
		// counts as arrived but is never queued, or it would run again.
		return
	}
	wu.unsent = s.cfg.TargetNResults
	wu.queued = true
	s.pending.Push(wu, &wu.batch.pending)
	s.dispatch()
}

// WorkerJoin implements middleware.Server. A returning host resumes its
// checkpointed replica, if the workunit still needs it; a replica of a
// completed workunit is aborted at reconnection.
func (s *Server) WorkerJoin(w *middleware.Worker) {
	if _, ok := s.attached[w]; ok {
		return
	}
	st := &workerState{}
	s.attached[w] = st
	if ex, ok := s.paused[w]; ok {
		delete(s.paused, w)
		if !ex.wu.completed {
			st.cur = ex.wu
			ex.paused = false
			ex.resumedAt = s.eng.Now()
			ex.doneEv = s.eng.AfterOp(ex.remaining, s.opDone, sim.Payload{A: ex})
			return
		}
		delete(ex.wu.execs, w)
		delete(ex.wu.holders, w.ID)
	}
	s.idle.Add(w)
	s.dispatch()
}

// WorkerLeave implements middleware.Server. The host's computation is
// checkpointed: it resumes if the host returns. The server cannot tell —
// the replica stays counted active until its deadline reveals the absence.
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
	wu := st.cur
	if ex := wu.execs[w]; ex != nil {
		s.eng.Cancel(ex.doneEv)
		ex.remaining -= s.eng.Now() - ex.resumedAt
		if ex.remaining < 0 {
			ex.remaining = 0
		}
		ex.paused = true
		s.paused[w] = ex
	}
}

// dispatch pairs idle workers with assignable replicas.
func (s *Server) dispatch() {
	for {
		hasQueued := !s.pending.Empty()
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
			if s.peekWorkunit(w) == nil {
				if w.DedicatedBatch == "" && !w.Cloud {
					// A free worker refused only by per-WU constraints;
					// others may differ, so do not mark anything barren.
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
		wu := s.peekWorkunit(w)
		if wu == nil {
			s.idle.Add(w)
			return
		}
		s.assign(w, wu)
	}
}

// eligible applies matchmaking: batch dedication (the compiled-in policy
// the paper adds to BOINC, §3.7) plus one_result_per_user_per_wu.
func (s *Server) eligible(w *middleware.Worker, wu *workunit) bool {
	if w.DedicatedBatch != "" && wu.batch.spec.ID != w.DedicatedBatch {
		return false
	}
	if s.cfg.OneResultPerWorker && (wu.holders[w.ID] || wu.returned[w.ID]) {
		return false
	}
	return true
}

// firstPending returns the first queued workunit the worker may take: a
// dedicated worker's from its batch's view of the pending queue, a free
// worker's from a scan of the queue.
func (s *Server) firstPending(w *middleware.Worker) *workunit {
	eligible := func(wu *workunit) bool { return s.eligible(w, wu) }
	if w.DedicatedBatch == "" {
		return s.pending.First(eligible)
	}
	if bt := s.batches[w.DedicatedBatch]; bt != nil {
		return s.pending.FirstIn(&bt.pending, eligible)
	}
	return nil
}

// peekWorkunit returns the workunit the worker would receive a replica of.
func (s *Server) peekWorkunit(w *middleware.Worker) *workunit {
	if wu := s.firstPending(w); wu != nil {
		return wu
	}
	if s.reschedule && w.Cloud && w.DedicatedBatch != "" {
		// Reschedule: create extra replicas, beyond target_nresults, of
		// incomplete workunits (speculative execution on stable cloud
		// resources). Cloud workers stay continuously busy until the
		// batch completes — the paper's Fig 5 commentary — spreading over
		// the least-duplicated workunits first so the quorum of every
		// tail workunit becomes achievable on the cloud alone.
		bt := s.batches[w.DedicatedBatch]
		if bt == nil {
			return nil
		}
		var best *workunit
		bestDups := 0
		for _, wu := range bt.wus {
			if !wu.arrived || wu.completed || !s.eligible(w, wu) {
				continue
			}
			dups := wu.cloudReplicas()
			if best == nil || dups < bestDups {
				best, bestDups = wu, dups
				if dups == 0 {
					break
				}
			}
		}
		return best
	}
	return nil
}

// anyDupCandidate reports whether a Reschedule duplicate could be created.
func (s *Server) anyDupCandidate() bool {
	for _, bt := range s.batches {
		if !bt.done && bt.arrived > bt.completed {
			return true
		}
	}
	return false
}

func (s *Server) assign(w *middleware.Worker, wu *workunit) {
	st := s.attached[w]
	if st == nil || st.cur != nil {
		panic("boinc: assigning to busy or detached worker")
	}
	st.cur = wu
	if wu.unsent > 0 && wu.queued {
		wu.unsent--
		if wu.unsent == 0 {
			wu.queued = false
		}
	}
	s.setActive(wu, 1)
	wu.holders[w.ID] = true
	if !wu.assigned {
		wu.assigned = true
		wu.batch.assigned++
		s.listeners.TaskAssigned(wu.batch.spec.ID, wu.spec.ID, s.eng.Now())
	}
	dur := wu.spec.NOps / w.Power
	ex := &exec{w: w, wu: wu, remaining: dur, resumedAt: s.eng.Now()}
	wu.execs[w] = ex
	ex.doneEv = s.eng.AfterOp(dur, s.opDone, sim.Payload{A: ex})
	// Deadline: if the result has not arrived by then, the replica is
	// presumed lost and a replacement is created.
	s.eng.AfterOp(s.cfg.DelayBound, s.opDeadline, sim.Payload{A: ex})
}

// returnResult processes a successful result from worker w.
func (s *Server) returnResult(w *middleware.Worker, wu *workunit, ex *exec) {
	if st := s.attached[w]; st != nil && st.cur == wu {
		st.cur = nil
		s.idle.Add(w)
	}
	delete(wu.execs, w)
	delete(wu.holders, w.ID)
	wu.returned[w.ID] = true
	if !ex.settled {
		ex.settled = true
		s.setActive(wu, -1)
	}
	if !wu.completed {
		// Results are validated on arrival; a late result (deadline
		// already expired) still counts toward the quorum.
		wu.results++
		if wu.results >= s.cfg.MinQuorum {
			s.completeWU(wu, w)
		}
	}
	s.dispatch()
}

// deadline fires delay_bound after a replica assignment. If that replica's
// result has not arrived — dead host, or an alive host computing too slowly
// — the server gives up on it and creates a replacement, keeping
// target_nresults outstanding. This is the only mechanism through which
// BOINC discovers host failures.
func (s *Server) deadline(wu *workunit, ex *exec) {
	if wu.completed || ex.settled {
		return
	}
	ex.settled = true
	s.setActive(wu, -1)
	outstanding := wu.active + wu.unsent + wu.results
	if outstanding < s.cfg.TargetNResults {
		wu.unsent += s.cfg.TargetNResults - outstanding
		if !wu.queued {
			wu.queued = true
			s.pending.Push(wu, &wu.batch.pending)
		}
		s.dispatch()
	}
}

// completeWU finalizes a workunit: quorum reached. Outstanding replicas are
// aborted and their live workers freed (server-side cancel; see DESIGN.md).
// by is the worker whose result closed the quorum (nil for external merge).
func (s *Server) completeWU(wu *workunit, by *middleware.Worker) {
	wu.completed = true
	wu.unsent = 0
	wu.queued = false
	bt := wu.batch
	bt.completed++
	now := s.eng.Now()
	s.listeners.TaskCompleted(bt.spec.ID, wu.spec.ID, now)
	s.listeners.NotifyExecutedBy(bt.spec.ID, wu.spec.ID, by, now)
	for _, w := range sortedExecWorkers(wu.execs) {
		ex := wu.execs[w]
		s.eng.Cancel(ex.doneEv)
		ex.settled = true
		delete(wu.execs, w)
		delete(s.paused, w)
		if st := s.attached[w]; st != nil && st.cur == wu {
			st.cur = nil
			s.idle.Add(w)
		}
	}
	s.setActive(wu, -wu.active)
	if bt.completed >= bt.size && !bt.done {
		bt.done = true
		s.listeners.BatchCompleted(bt.spec.ID, now)
	}
}

// MarkCompleted implements middleware.Server (result merging for Cloud
// Duplication): an external trusted result satisfies the quorum. Workunits
// are resolved by spec ID, which stays correct when the batch is a subset
// whose IDs are not dense slice indexes.
func (s *Server) MarkCompleted(batchID string, taskID int) {
	bt := s.batches[batchID]
	if bt == nil {
		return
	}
	wu := bt.byID[taskID]
	if wu == nil || wu.completed {
		return
	}
	s.completeWU(wu, nil)
	s.dispatch()
}

// Progress implements middleware.Server.
func (s *Server) Progress(batchID string) middleware.Progress {
	bt := s.batches[batchID]
	if bt == nil {
		return middleware.Progress{}
	}
	running, queued := 0, 0
	for _, wu := range bt.wus {
		switch {
		case wu.completed || !wu.arrived:
		case wu.active > 0:
			running++
		case wu.queued:
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
	for _, wu := range bt.wus {
		if !wu.completed {
			spec := wu.spec
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

// sortedExecWorkers returns the execution map's workers in ID order, so
// completion-time worker freeing is deterministic for a given seed.
func sortedExecWorkers(execs map[*middleware.Worker]*exec) []*middleware.Worker {
	out := make([]*middleware.Worker, 0, len(execs))
	for w := range execs {
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
