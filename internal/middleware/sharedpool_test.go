package middleware_test

import (
	"fmt"
	"testing"

	"spequlos/internal/boinc"
	"spequlos/internal/bot"
	"spequlos/internal/condor"
	"spequlos/internal/middleware"
	"spequlos/internal/sim"
	"spequlos/internal/xwhep"
)

// ctors builds each middleware model with its default parameters.
var ctors = map[string]func(*sim.Engine) middleware.Server{
	"BOINC":  func(e *sim.Engine) middleware.Server { return boinc.New(e, boinc.DefaultConfig()) },
	"XWHEP":  func(e *sim.Engine) middleware.Server { return xwhep.New(e, xwhep.DefaultConfig()) },
	"CONDOR": func(e *sim.Engine) middleware.Server { return condor.New(e, condor.DefaultConfig()) },
}

// assignmentAuditor verifies multi-tenant dispatch integrity: every task
// completes exactly once, and a dedicated (cloud) worker only ever executes
// tasks of its own batch. Together with the servers' internal
// busy-assignment panic, this is the regression net for two batches
// draining one idle pool.
type assignmentAuditor struct {
	t         *testing.T
	completed map[string]int
}

func (a *assignmentAuditor) TaskAssigned(string, int, float64) {}
func (a *assignmentAuditor) TaskCompleted(batchID string, taskID int, _ float64) {
	key := fmt.Sprintf("%s/%d", batchID, taskID)
	a.completed[key]++
	if a.completed[key] > 1 {
		a.t.Errorf("task %s completed %d times", key, a.completed[key])
	}
}
func (a *assignmentAuditor) BatchCompleted(string, float64) {}
func (a *assignmentAuditor) TaskExecutedBy(batchID string, taskID int, w *middleware.Worker, _ float64) {
	if w == nil {
		return
	}
	if w.DedicatedBatch != "" && w.DedicatedBatch != batchID {
		a.t.Errorf("worker %d dedicated to %q executed task %d of batch %q",
			w.ID, w.DedicatedBatch, taskID, batchID)
	}
}

// TestTwoBatchesSharedPoolNoDoubleAssign runs two interleaved batches over
// one churning idle pool — with dedicated cloud workers and Reschedule
// duplication active, the heaviest dispatch path — on every middleware.
// The servers panic if a busy worker is ever re-assigned; the auditor
// checks exactly-once completion and batch dedication.
func TestTwoBatchesSharedPoolNoDoubleAssign(t *testing.T) {
	for name, ctor := range ctors {
		t.Run(name, func(t *testing.T) {
			eng := sim.NewEngine()
			srv := ctor(eng)
			audit := &assignmentAuditor{t: t, completed: map[string]int{}}
			srv.AddListener(audit)

			mkBatch := func(id string, n int) middleware.Batch {
				tasks := make([]bot.Task, n)
				for i := range tasks {
					tasks[i] = bot.Task{ID: i, NOps: 900, Arrival: float64(i%5) * 30}
				}
				return middleware.Batch{ID: id, Tasks: tasks}
			}
			srv.Submit(mkBatch("a", 30))
			srv.Submit(mkBatch("b", 30))

			// A shared pool of node workers, churning: each worker leaves
			// and rejoins on its own cadence, so the idle set drains and
			// refills while both batches compete for it.
			workers := make([]*middleware.Worker, 8)
			for i := range workers {
				w := &middleware.Worker{ID: i, Power: 1}
				workers[i] = w
				srv.WorkerJoin(w)
				period := 400.0 + 60*float64(i)
				var churn func()
				churn = func() {
					srv.WorkerLeave(w)
					eng.After(150, func() {
						srv.WorkerJoin(w)
						eng.After(period, churn)
					})
				}
				eng.After(period, churn)
			}

			// Dedicated cloud workers for both batches plus Reschedule
			// duplication: cloud workers must keep pulling work for their
			// own batch only, even when the other batch's tasks queue.
			srv.SetReschedule(true)
			for i := 0; i < 2; i++ {
				srv.WorkerJoin(middleware.NewCloudWorker(i, 3, "a"))
				srv.WorkerJoin(middleware.NewCloudWorker(2+i, 3, "b"))
			}

			eng.RunWhile(func() bool {
				return (!srv.Done("a") || !srv.Done("b")) && eng.Now() < 30*86400
			})
			if !srv.Done("a") || !srv.Done("b") {
				t.Fatalf("batches did not complete: a=%v b=%v", srv.Done("a"), srv.Done("b"))
			}
			for _, id := range []string{"a", "b"} {
				p := srv.Progress(id)
				if p.Completed != 30 || p.EverAssigned != 30 {
					t.Errorf("batch %s progress inconsistent: %+v", id, p)
				}
			}
		})
	}
}

// TestIdleSetTwoConsumersNeverShareAWorker is the IdleSet-level property
// behind the dispatch invariant: two consumers draining one set can never
// receive the same worker, because Pick removes before returning.
func TestIdleSetTwoConsumersNeverShareAWorker(t *testing.T) {
	s := middleware.NewIdleSet()
	workers := make([]*middleware.Worker, 64)
	for i := range workers {
		workers[i] = &middleware.Worker{ID: i, Cloud: i%3 == 0}
		s.Add(workers[i])
	}
	held := map[*middleware.Worker]string{}
	consumers := []struct {
		name  string
		match func(*middleware.Worker) bool
	}{
		{"cloud", func(w *middleware.Worker) bool { return w.Cloud }},
		{"any", func(*middleware.Worker) bool { return true }},
	}
	// Interleave the two consumers; every pick must yield a worker no one
	// currently holds. Periodically release workers back.
	released := 0
	for round := 0; round < 200; round++ {
		c := consumers[round%2]
		w := s.Pick(c.match)
		if w == nil {
			// Refill from the held set (simulates task completion).
			for rw := range held {
				delete(held, rw)
				s.Add(rw)
				released++
				break
			}
			continue
		}
		if owner, taken := held[w]; taken {
			t.Fatalf("round %d: %s picked worker %d already held by %s", round, c.name, w.ID, owner)
		}
		held[w] = c.name
		if round%7 == 0 {
			// Release one early, as a completing task would.
			delete(held, w)
			s.Add(w)
		}
	}
	if released == 0 {
		t.Fatal("property test never cycled workers through the set")
	}
}

// lifecycleCounter counts task lifecycle events per task and batch
// completions.
type lifecycleCounter struct {
	assigned, completed map[int]int
	batchDone           int
}

func (c *lifecycleCounter) TaskAssigned(_ string, id int, _ float64)  { c.assigned[id]++ }
func (c *lifecycleCounter) TaskCompleted(_ string, id int, _ float64) { c.completed[id]++ }
func (c *lifecycleCounter) BatchCompleted(string, float64)            { c.batchDone++ }

// TestCompletedBeforeArrivalNeverRuns is the regression test for the arrive
// defect: a task whose result is merged in (MarkCompleted, as Cloud
// Duplication's mirror does) before its arrival event fires used to be
// queued by that event and executed again. Task 0 arrives at t=10 and is
// marked completed at t=5; task 1 is an ordinary task that closes the batch.
func TestCompletedBeforeArrivalNeverRuns(t *testing.T) {
	for name, ctor := range ctors {
		t.Run(name, func(t *testing.T) {
			eng := sim.NewEngine()
			srv := ctor(eng)
			rec := &lifecycleCounter{assigned: map[int]int{}, completed: map[int]int{}}
			srv.AddListener(rec)
			srv.Submit(middleware.Batch{ID: "b", Tasks: []bot.Task{
				{ID: 0, NOps: 100, Arrival: 10},
				{ID: 1, NOps: 100},
			}})
			eng.At(5, func() { srv.MarkCompleted("b", 0) })
			// Enough hosts for a BOINC quorum on task 1 and to spare.
			for i := 0; i < 4; i++ {
				srv.WorkerJoin(&middleware.Worker{ID: i, Power: 1})
			}
			eng.RunUntil(11) // task 0's arrival event has fired
			p := srv.Progress("b")
			if p.Arrived != 2 || p.Completed != 1 || p.Queued != 0 || p.Running != 1 || p.EverAssigned != 1 {
				t.Fatalf("after the arrival: %+v, want both arrived, task 0 completed, only task 1 running", p)
			}
			eng.Run()
			if rec.assigned[0] != 0 {
				t.Errorf("TaskAssigned fired %d times for the completed task", rec.assigned[0])
			}
			if rec.completed[0] != 1 || rec.completed[1] != 1 {
				t.Errorf("completions per task = %v, want one each", rec.completed)
			}
			if rec.batchDone != 1 || !srv.Done("b") {
				t.Errorf("batch completed %d times, done=%v", rec.batchDone, srv.Done("b"))
			}
			if p := srv.Progress("b"); p.Queued != 0 || p.Running != 0 || p.EverAssigned != 1 {
				t.Errorf("final progress: %+v", p)
			}
		})
	}
}
