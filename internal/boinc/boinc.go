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
	"slices"

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

// Server is a BOINC server simulation. It implements middleware.Server:
// everything but the handling of volatile hosts is the embedded frame's. The
// checkpointed execution of an offline host is parked on the host's record in
// the frame (Park), and resumed if the host returns.
type Server struct {
	*frame
	cfg Config
	// pending is the queue of workunits with unsent replicas; a worker
	// dedicated to a batch is served from the batch's view of it.
	pending middleware.Pending[*workunit]
}

type (
	frame    = middleware.Frame[replication, replica]
	batch    = middleware.BatchState[replication, replica]
	workunit = middleware.Task[replication, replica]
	exec     = middleware.Exec[replication, replica]
)

// replication is the server's bookkeeping of one workunit's replicas.
type replication struct {
	// unsent is the number of created-but-unassigned replicas; the workunit
	// is queued while it is positive.
	unsent int
	// active counts replicas the server believes are executing (results
	// pending, deadline not reached); the workunit is running while it is
	// positive. Dead hosts stay counted until their deadline — BOINC cannot
	// tell.
	active int
	// results is the number of successful results received.
	results int
	// returned lists the IDs of the workers that returned a result
	// (one_result_per_user_per_wu). The workers currently holding a replica
	// are those with an execution of the workunit: the frame records one
	// just before Start and drops it just before Result, and nothing asks
	// once the workunit completed.
	returned []int
}

// replica is the state of one replica's execution.
type replica struct {
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
}

// setActive adjusts the believed-active replica count.
func setActive(wu *workunit, delta int) {
	wu.M.active = max(wu.M.active+delta, 0)
	wu.SetRunning(wu.M.active > 0)
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
	s := &Server{cfg: cfg}
	s.frame = middleware.NewFrame[replication, replica](eng, "BOINC", s)
	return s
}

var _ middleware.Server = (*Server)(nil)

// Enqueue implements middleware.Mechanism: target_nresults replicas of the
// arrived workunit are created.
func (s *Server) Enqueue(wu *workunit) {
	wu.M = replication{unsent: s.cfg.TargetNResults}
	s.pending.Push(wu, wu.Batch.Num())
}

// HasQueued implements middleware.Mechanism.
func (s *Server) HasQueued() bool { return !s.pending.Empty() }

// FirstQueued implements middleware.Mechanism: a dedicated worker is served
// from its batch's view of the pending queue, a free worker from a scan of
// the queue.
func (s *Server) FirstQueued(w *middleware.Worker, bt *batch) *workunit {
	mayHold := func(wu *workunit) bool { return s.MayDuplicate(w, wu) }
	if bt == nil {
		return s.pending.First(mayHold)
	}
	return s.pending.FirstIn(bt.Num(), mayHold)
}

// MayDuplicate implements middleware.Mechanism, and is the filter on unsent
// replicas as well: one_result_per_user_per_wu. Reschedule creates extra
// replicas, beyond target_nresults, so that the quorum of every tail
// workunit becomes achievable on the cloud alone.
func (s *Server) MayDuplicate(w *middleware.Worker, wu *workunit) bool {
	return !s.cfg.OneResultPerWorker || (wu.ExecOn(w) == nil && !slices.Contains(wu.M.returned, w.ID))
}

// WorkerJoin implements middleware.Server. A returning host resumes its
// checkpointed replica, if the workunit still needs it; a replica of a
// workunit completed meanwhile is aborted at reconnection.
func (s *Server) WorkerJoin(w *middleware.Worker) {
	if !s.Attach(w) {
		return
	}
	if ex := s.Unpark(w); ex != nil {
		if !ex.Task.Completed() {
			ex.M.resumedAt = s.Engine().Now()
			s.Resume(ex, ex.M.remaining)
			return
		}
	}
	s.Offer(w)
}

// WorkerLeave implements middleware.Server. The host's computation is
// checkpointed: it resumes if the host returns. The server cannot tell —
// the replica stays counted active until its deadline reveals the absence.
func (s *Server) WorkerLeave(w *middleware.Worker) {
	if ex := s.Detach(w); ex != nil {
		ex.M.remaining = max(ex.M.remaining-(s.Engine().Now()-ex.M.resumedAt), 0)
		s.Park(ex)
	}
}

// Start implements middleware.Mechanism: the worker takes an unsent replica
// if there is one (an extra one under Reschedule otherwise).
func (s *Server) Start(ex *exec) {
	w, wu := ex.W, ex.Task
	if wu.M.unsent > 0 && wu.Queued() {
		wu.M.unsent--
		wu.SetQueued(wu.M.unsent > 0)
	}
	setActive(wu, 1)
	dur := wu.Spec.NOps / w.Power
	ex.M = replica{remaining: dur, resumedAt: s.Engine().Now()}
	s.Run(ex, dur)
	// Deadline: if the result has not arrived by then, the replica is
	// presumed lost and a replacement is created.
	s.Alarm(ex, s.cfg.DelayBound)
}

// Result implements middleware.Mechanism: min_quorum results complete the
// workunit.
func (s *Server) Result(ex *exec) bool {
	w, wu := ex.W, ex.Task
	if !slices.Contains(wu.M.returned, w.ID) {
		if wu.M.returned == nil {
			wu.M.returned = make([]int, 0, s.cfg.MinQuorum)
		}
		wu.M.returned = append(wu.M.returned, w.ID)
	}
	if !ex.M.settled {
		ex.M.settled = true
		setActive(wu, -1)
	}
	if wu.Completed() {
		return false
	}
	// Results are validated on arrival; a late result (deadline already
	// expired) still counts toward the quorum.
	wu.M.results++
	return wu.M.results >= s.cfg.MinQuorum
}

// Expire implements middleware.Mechanism: the replica's deadline, delay_bound
// after its assignment. If that replica's result has not arrived — dead host,
// or an alive host computing too slowly — the server gives up on it and
// creates a replacement, keeping target_nresults outstanding. This is the only mechanism through which
// BOINC discovers host failures.
func (s *Server) Expire(ex *exec) {
	wu := ex.Task
	if wu.Completed() || ex.M.settled {
		return
	}
	ex.M.settled = true
	setActive(wu, -1)
	outstanding := wu.M.active + wu.M.unsent + wu.M.results
	if outstanding < s.cfg.TargetNResults {
		wu.M.unsent += s.cfg.TargetNResults - outstanding
		if !wu.Queued() {
			wu.SetQueued(true)
			s.pending.Push(wu, wu.Batch.Num())
		}
		s.Dispatch()
	}
}

// Clear implements middleware.Mechanism.
func (s *Server) Clear() { s.pending.Reset() }
