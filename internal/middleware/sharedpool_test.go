package middleware_test

import (
	"fmt"
	"strings"
	"testing"

	"spequlos/internal/boinc"
	"spequlos/internal/bot"
	"spequlos/internal/condor"
	"spequlos/internal/middleware"
	"spequlos/internal/sim"
	"spequlos/internal/xwhep"
)

type model struct {
	name             string
	new              func(*sim.Engine) middleware.Server
	replicas, quorum int
}

// models lists each middleware model with its default parameters. replicas
// is the number of hosts that take a task's first executions and quorum the
// number of results that complete it (3 and 2 under BOINC's defaults, one
// execution and its one result elsewhere): a scenario that joins so many
// hosts at a time reads the same on every model.
var models = []model{
	{"BOINC", func(e *sim.Engine) middleware.Server { return boinc.New(e, boinc.DefaultConfig()) }, 3, 2},
	{"XWHEP", func(e *sim.Engine) middleware.Server { return xwhep.New(e, xwhep.DefaultConfig()) }, 1, 1},
	{"CONDOR", func(e *sim.Engine) middleware.Server { return condor.New(e, condor.DefaultConfig()) }, 1, 1},
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
	for _, m := range models {
		t.Run(m.name, func(t *testing.T) {
			eng := sim.NewEngine()
			srv := m.new(eng)
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
					eng.At(eng.Now()+150, func() {
						srv.WorkerJoin(w)
						eng.At(eng.Now()+period, churn)
					})
				}
				eng.At(eng.Now()+period, churn)
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

// lifecycleCounter counts task lifecycle events per task and batch
// completions, and keeps the time of the last of each.
type lifecycleCounter struct {
	assigned, completed map[int]int
	completedAt         map[int]float64
	batchDone           int
	batchDoneAt         float64
}

func newLifecycleCounter() *lifecycleCounter {
	return &lifecycleCounter{assigned: map[int]int{}, completed: map[int]int{}, completedAt: map[int]float64{}}
}

func (c *lifecycleCounter) TaskAssigned(_ string, id int, _ float64) { c.assigned[id]++ }
func (c *lifecycleCounter) TaskCompleted(_ string, id int, at float64) {
	c.completed[id]++
	c.completedAt[id] = at
}
func (c *lifecycleCounter) BatchCompleted(_ string, at float64) {
	c.batchDone++
	c.batchDoneAt = at
}

// TestCompletedBeforeArrivalNeverRuns is the regression test for the arrive
// defect: a task whose result is merged in (MarkCompleted, as Cloud
// Duplication's mirror does) before its arrival event fires used to be
// queued by that event and executed again. Task 0 arrives at t=10 and is
// marked completed at t=5; task 1 is an ordinary task that closes the batch.
func TestCompletedBeforeArrivalNeverRuns(t *testing.T) {
	for _, m := range models {
		t.Run(m.name, func(t *testing.T) {
			s := m.start()
			eng, srv, rec := s.eng, s.srv, s.rec
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

// join attaches n power-1 hosts with IDs 0..n-1 and returns them.
func join(srv middleware.Server, n int) []*middleware.Worker {
	ws := make([]*middleware.Worker, n)
	for i := range ws {
		ws[i] = &middleware.Worker{ID: i, Power: 1}
		srv.WorkerJoin(ws[i])
	}
	return ws
}

// server is one model's fresh server on its own engine, with a listener
// counting its lifecycle events.
type server struct {
	model
	eng *sim.Engine
	srv middleware.Server
	rec *lifecycleCounter
}

func (m model) start() server {
	eng := sim.NewEngine()
	s := server{model: m, eng: eng, srv: m.new(eng), rec: newLifecycleCounter()}
	s.srv.AddListener(s.rec)
	return s
}

// TestServerContract is what every middleware.Server does the same way — the
// behaviour of the frame the three models share (frame.go), stated once
// instead of once per package. Each row joins m.quorum or m.replicas hosts at
// a time, so that "one task at a time" reads the same under BOINC's
// replication as under a single execution. What differs per model (quorum,
// deadlines, detection, checkpoints, requeue order) is tested in its package.
func TestServerContract(t *testing.T) {
	rows := []struct {
		name string
		run  func(t *testing.T, s server)
	}{
		{"progress", func(t *testing.T, s server) {
			// Three tasks, the last arriving at t=80, executed one at a time.
			s.srv.Submit(middleware.Batch{ID: "b", Tasks: []bot.Task{
				{ID: 0, NOps: 100}, {ID: 1, NOps: 100}, {ID: 2, NOps: 100, Arrival: 80},
			}})
			join(s.srv, s.quorum)
			s.eng.RunUntil(50)
			want := middleware.Progress{Size: 3, Arrived: 2, EverAssigned: 1, Running: 1, Queued: 1, Workers: s.quorum}
			if p := s.srv.Progress("b"); p != want {
				t.Fatalf("at 50: %+v, want %+v", p, want)
			}
			s.eng.RunUntil(90)
			want.Arrived, want.Queued = 3, 2
			if p := s.srv.Progress("b"); p != want {
				t.Fatalf("at 90, after the late arrival: %+v, want %+v", p, want)
			}
			if s.srv.Done("b") {
				t.Fatal("Done before the batch completed")
			}
			s.eng.Run()
			want = middleware.Progress{Size: 3, Arrived: 3, Completed: 3, EverAssigned: 3, Workers: s.quorum}
			if p := s.srv.Progress("b"); p != want || !p.Done() || !s.srv.Done("b") {
				t.Fatalf("final: %+v (Done %v), want %+v", p, s.srv.Done("b"), want)
			}
			if p := s.srv.Progress("nope"); p != (middleware.Progress{}) || s.srv.Done("nope") {
				t.Fatalf("unknown batch: %+v", p)
			}
		}},
		{"dedication", func(t *testing.T, s server) {
			s.srv.Submit(middleware.Batch{ID: "other", Tasks: []bot.Task{{NOps: 100}}})
			s.srv.Submit(middleware.Batch{ID: "mine", Tasks: []bot.Task{{NOps: 100}}})
			for i := 0; i < s.quorum; i++ {
				s.srv.WorkerJoin(middleware.NewCloudWorker(i, 1, "mine"))
			}
			s.eng.Run()
			if !s.srv.Done("mine") {
				t.Fatal("dedicated batch not served")
			}
			if p := s.srv.Progress("other"); s.srv.Done("other") || p.EverAssigned != 0 {
				t.Fatalf("dedicated workers served a foreign batch: %+v", p)
			}
		}},
		{"reschedule", func(t *testing.T, s server) {
			// Slow hosts hold every first execution of the one task; cloud
			// workers dedicated to the batch join at t=100 with nothing queued.
			// Only under Reschedule do they get duplicates (and win at 200).
			for _, c := range []struct {
				reschedule bool
				doneAt     float64
			}{{false, 10000}, {true, 200}} {
				s := s.start() // a fresh server per case
				s.srv.SetReschedule(c.reschedule)
				s.srv.Submit(middleware.Batch{ID: "b", Tasks: []bot.Task{{NOps: 10000}}})
				join(s.srv, s.replicas)
				s.eng.At(100, func() {
					for i := 0; i < s.quorum; i++ {
						s.srv.WorkerJoin(middleware.NewCloudWorker(i, 100, "b"))
					}
				})
				s.eng.Run()
				if s.rec.batchDoneAt != c.doneAt || s.rec.completed[0] != 1 {
					t.Fatalf("reschedule %v: done at %v (task completed %d times), want %v",
						c.reschedule, s.rec.batchDoneAt, s.rec.completed[0], c.doneAt)
				}
				if p := s.srv.Progress("b"); p.Running != 0 || p.Queued != 0 {
					t.Fatalf("reschedule %v: after completion %+v", c.reschedule, p)
				}
			}
		}},
		{"mark completed", func(t *testing.T, s server) {
			// A subset batch, as Cloud Duplication mirrors one: spec IDs 5 and
			// 9 are not slice indexes.
			s.srv.Submit(middleware.Batch{ID: "b", Tasks: []bot.Task{{ID: 5, NOps: 1000}, {ID: 9, NOps: 1000}}})
			join(s.srv, s.quorum)
			s.eng.RunUntil(100)
			if got := len(s.srv.Incomplete("b")); got != 2 {
				t.Fatalf("incomplete = %d", got)
			}
			s.eng.At(500, func() {
				s.srv.MarkCompleted("b", 5)  // external result for the running task
				s.srv.MarkCompleted("b", 5)  // idempotent
				s.srv.MarkCompleted("b", 0)  // a slice index is not an ID: ignored
				s.srv.MarkCompleted("b", 99) // unknown id ignored
				s.srv.MarkCompleted("zz", 5) // unknown batch ignored
			})
			s.eng.Run()
			// Task 5 completed externally at 500; its hosts, freed, run task 9
			// until 1500.
			if s.rec.completedAt[5] != 500 || s.rec.completedAt[9] != 1500 || s.rec.completed[5] != 1 || s.rec.completed[9] != 1 {
				t.Fatalf("completions %v at %v", s.rec.completed, s.rec.completedAt)
			}
			if s.rec.batchDone != 1 || s.rec.batchDoneAt != 1500 || !s.srv.Done("b") {
				t.Fatalf("batch done %d times, at %v", s.rec.batchDone, s.rec.batchDoneAt)
			}
			if p := s.srv.Progress("b"); p.Completed != 2 || p.Running != 0 {
				t.Fatalf("progress: %+v", p)
			}
		}},
		{"incomplete", func(t *testing.T, s server) {
			s.srv.Submit(middleware.Batch{ID: "b", Tasks: []bot.Task{
				{ID: 0, NOps: 100}, {ID: 1, NOps: 5000, Arrival: 20}, {ID: 2, NOps: 6000, Arrival: 40},
			}})
			join(s.srv, s.quorum)
			s.eng.RunUntil(200) // task 0 done, task 1 running, task 2 queued
			// Arrivals are reset: the snapshot is resubmitted elsewhere, now.
			want := []bot.Task{{ID: 1, NOps: 5000}, {ID: 2, NOps: 6000}}
			got := s.srv.Incomplete("b")
			if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
				t.Fatalf("incomplete = %+v, want %+v", got, want)
			}
			if s.srv.Incomplete("zz") != nil {
				t.Fatal("unknown batch should return nil")
			}
		}},
		{"duplicate submit", func(t *testing.T, s server) {
			if s.srv.MiddlewareName() != s.name {
				t.Fatalf("name %q, want %q", s.srv.MiddlewareName(), s.name)
			}
			s.srv.Submit(middleware.Batch{ID: "b", Tasks: []bot.Task{{NOps: 1}}})
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, s.name) || !strings.Contains(msg, `"b"`) {
					t.Fatalf("duplicate Submit: panic %q, want one naming %s and the batch", msg, s.name)
				}
			}()
			s.srv.Submit(middleware.Batch{ID: "b", Tasks: []bot.Task{{NOps: 1}}})
		}},
		{"task ids", func(t *testing.T, s server) {
			// A repeated ID would leave MarkCompleted one of the two tasks
			// only; a negative one has no place in the ID table.
			for _, c := range []struct {
				batch string
				ids   []int
				want  string
			}{{"repeated", []int{4, 2, 4}, "duplicate task ID 4"}, {"negative", []int{0, -1}, "negative task ID -1"}} {
				tasks := make([]bot.Task, len(c.ids))
				for i, id := range c.ids {
					tasks[i] = bot.Task{ID: id, NOps: 1}
				}
				msg := func() (msg string) {
					defer func() { msg = fmt.Sprint(recover()) }()
					s.srv.Submit(middleware.Batch{ID: c.batch, Tasks: tasks})
					return ""
				}()
				if !strings.Contains(msg, s.name) || !strings.Contains(msg, `"`+c.batch+`"`) || !strings.Contains(msg, c.want) {
					t.Fatalf("Submit of task IDs %v: panic %q, want one naming %s, the batch and %q", c.ids, msg, s.name, c.want)
				}
				if p := s.srv.Progress(c.batch); p != (middleware.Progress{}) {
					t.Fatalf("refused batch %q is registered: %+v", c.batch, p)
				}
			}
		}},
		{"worker busy", func(t *testing.T, s server) {
			s.srv.Submit(middleware.Batch{ID: "b", Tasks: []bot.Task{{NOps: 100}}})
			s.eng.RunUntil(10) // the task has arrived: each join is served at once
			// One more host than there is work.
			ws := join(s.srv, s.replicas+1)
			stranger := &middleware.Worker{ID: 99, Power: 1}
			s.eng.RunUntil(50)
			for i, w := range ws {
				if busy := s.srv.WorkerBusy(w); busy != (i < s.replicas) {
					t.Fatalf("at 50: host %d busy = %v", i, busy)
				}
			}
			if s.srv.WorkerBusy(stranger) {
				t.Fatal("a worker that never joined is busy")
			}
			s.srv.WorkerLeave(ws[0])
			if s.srv.WorkerBusy(ws[0]) {
				t.Fatal("a detached worker is busy")
			}
			s.srv.WorkerJoin(ws[0])
			s.eng.RunWhile(func() bool { return !s.srv.Done("b") })
			for i, w := range ws[1:] {
				if s.srv.WorkerBusy(w) {
					t.Fatalf("host %d still busy after the batch completed", i+1)
				}
			}
		}},
	}
	for _, m := range models {
		t.Run(m.name, func(t *testing.T) {
			for _, row := range rows {
				t.Run(row.name, func(t *testing.T) { row.run(t, m.start()) })
			}
		})
	}
}
