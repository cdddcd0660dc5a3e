package xwhep_test

import (
	"testing"
	"testing/quick"

	"spequlos/internal/bot"
	"spequlos/internal/condor"
	"spequlos/internal/middleware"
	"spequlos/internal/sim"
	"spequlos/internal/xwhep"
)

// models are the two parameter sets of the one single-execution server.
// Every scenario in this file runs once per entry; what only one model does
// (priority requeue and heartbeat timeout here, checkpoints and poll-based
// detection in package condor) is tested apart.
var models = []model{
	{"XWHEP", func(e *sim.Engine) *xwhep.Server { return xwhep.New(e, xwhep.DefaultConfig()) }},
	{"CONDOR", func(e *sim.Engine) *xwhep.Server { return condor.New(e, condor.DefaultConfig()) }},
}

type model struct {
	name string
	new  func(*sim.Engine) *xwhep.Server
}

// start returns a fresh engine, a server of the model on it and a recorder
// listening to the server.
func (m model) start() (*sim.Engine, *xwhep.Server, *recorder) {
	eng := sim.NewEngine()
	s := m.new(eng)
	rec := &recorder{completed: map[int]int{}, compTimes: map[int]float64{}, batchDone: -1}
	s.AddListener(rec)
	return eng, s, rec
}

// eachModel runs the scenario as one subtest per model.
func eachModel(t *testing.T, scenario func(t *testing.T, m model)) {
	for _, m := range models {
		t.Run(m.name, func(t *testing.T) { scenario(t, m) })
	}
}

type recorder struct {
	completed map[int]int
	compTimes map[int]float64
	batchDone float64
}

func (r *recorder) TaskAssigned(string, int, float64) {}
func (r *recorder) TaskCompleted(b string, id int, _ *middleware.Worker, at float64) {
	r.completed[id]++
	r.compTimes[id] = at
}
func (r *recorder) BatchCompleted(b string, at float64) { r.batchDone = at }

func tasks(nops ...float64) []bot.Task {
	out := make([]bot.Task, len(nops))
	for i, n := range nops {
		out[i] = bot.Task{ID: i, NOps: n}
	}
	return out
}

func TestSequentialExecution(t *testing.T) {
	eachModel(t, func(t *testing.T, m model) {
		for _, nops := range [][]float64{{100, 200, 300}, {100, 200}} {
			eng, s, rec := m.start()
			s.Submit(middleware.Batch{ID: "b", Tasks: tasks(nops...)})
			s.WorkerJoin(&middleware.Worker{ID: 0, Power: 1})
			eng.Run()
			at := 0.0 // one power-1 worker: completions at the running sum
			for id, n := range nops {
				at += n
				if rec.compTimes[id] != at {
					t.Errorf("%v: task %d completed at %v, want %v", nops, id, rec.compTimes[id], at)
				}
			}
			if rec.batchDone != at {
				t.Fatalf("%v: batch done at %v, want %v (sequential)", nops, rec.batchDone, at)
			}
			if !s.Done("b") {
				t.Fatal("Done false after completion")
			}
			if s.MiddlewareName() != m.name {
				t.Fatalf("name %q, want %q", s.MiddlewareName(), m.name)
			}
		}
	})
}

func TestParallelWorkers(t *testing.T) {
	eachModel(t, func(t *testing.T, m model) {
		eng, s, rec := m.start()
		s.Submit(middleware.Batch{ID: "b", Tasks: tasks(100, 100, 100, 100)})
		for i := 0; i < 4; i++ {
			s.WorkerJoin(&middleware.Worker{ID: i, Power: 1})
		}
		eng.Run()
		if rec.batchDone != 100 {
			t.Fatalf("batch done at %v, want 100 (4 workers, 4 tasks)", rec.batchDone)
		}
	})
}

func TestFailureDetectionAndReassignment(t *testing.T) {
	eng, s, rec := models[0].start() // XWHEP: detection = 900 + 60/2 after death
	s.Submit(middleware.Batch{ID: "b", Tasks: tasks(1000)})
	w1 := &middleware.Worker{ID: 1, Power: 1}
	w2 := &middleware.Worker{ID: 2, Power: 1}
	s.WorkerJoin(w1)
	eng.At(500, func() { s.WorkerLeave(w1) })
	eng.At(600, func() { s.WorkerJoin(w2) })
	eng.Run()
	// death 500 → detected 500+930=1430 → w2 runs 1000s → 2430.
	if rec.batchDone != 2430 {
		t.Fatalf("batch done at %v, want 2430", rec.batchDone)
	}
	if rec.completed[0] != 1 {
		t.Fatalf("task completed %d times", rec.completed[0])
	}
}

func TestRequeuedTaskHasPriority(t *testing.T) {
	eng, s, rec := models[0].start() // XWHEP requeues first
	// Task 0 will fail; tasks 1..3 queue behind.
	s.Submit(middleware.Batch{ID: "b", Tasks: tasks(5000, 100, 100, 100)})
	w1 := &middleware.Worker{ID: 1, Power: 1}
	s.WorkerJoin(w1) // takes task 0
	eng.At(100, func() { s.WorkerLeave(w1) })
	// A second worker arrives after the failure is detected; the requeued
	// task 0 must be served before the still-pending task 3.
	eng.At(2000, func() { s.WorkerJoin(&middleware.Worker{ID: 2, Power: 1}) })
	eng.RunUntil(2000 + 5000 + 1)
	if rec.compTimes[0] != 7000 {
		t.Fatalf("requeued task finished at %v, want 7000 (served first)", rec.compTimes[0])
	}
}

func TestRescheduleDuplicatesRunningTask(t *testing.T) {
	eachModel(t, func(t *testing.T, m model) {
		for _, c := range []struct{ nops, joinAt, power, want float64 }{
			{10000, 100, 100, 200},
			{100000, 60, 1000, 160},
		} {
			eng, s, rec := m.start()
			s.SetReschedule(true)
			s.Submit(middleware.Batch{ID: "b", Tasks: tasks(c.nops)})
			slow := &middleware.Worker{ID: 1, Power: 1} // would finish at nops
			s.WorkerJoin(slow)
			eng.At(c.joinAt, func() {
				s.WorkerJoin(middleware.NewCloudWorker(0, c.power, "b")) // duplicate: nops/power
			})
			eng.Run()
			if rec.batchDone != c.want {
				t.Fatalf("batch done at %v, want %v (cloud duplicate wins)", rec.batchDone, c.want)
			}
			if rec.completed[0] != 1 {
				t.Fatalf("task completed %d times, want 1", rec.completed[0])
			}
			// The slow worker must have been freed when the duplicate won.
			if p := s.Progress("b"); p.Running != 0 {
				t.Fatalf("running = %d after completion", p.Running)
			}
		}
	})
}

func TestFirstResultWinsOverDuplicate(t *testing.T) {
	eachModel(t, func(t *testing.T, m model) {
		eng, s, rec := m.start()
		s.SetReschedule(true)
		s.Submit(middleware.Batch{ID: "b", Tasks: tasks(1000)})
		s.WorkerJoin(&middleware.Worker{ID: 1, Power: 1}) // finishes at 1000
		eng.At(950, func() {
			s.WorkerJoin(middleware.NewCloudWorker(0, 2, "b")) // would finish at 1450
		})
		eng.Run()
		if rec.batchDone != 1000 {
			t.Fatalf("batch done at %v, want 1000 (regular worker still wins)", rec.batchDone)
		}
		if rec.completed[0] != 1 {
			t.Fatalf("task completed %d times", rec.completed[0])
		}
	})
}

func TestArrivalSchedule(t *testing.T) {
	eachModel(t, func(t *testing.T, m model) {
		eng, s, rec := m.start()
		s.Submit(middleware.Batch{ID: "b", Tasks: []bot.Task{
			{ID: 0, NOps: 10, Arrival: 0},
			{ID: 1, NOps: 10, Arrival: 500},
		}})
		s.WorkerJoin(&middleware.Worker{ID: 1, Power: 1})
		eng.Run()
		if rec.compTimes[1] != 510 {
			t.Fatalf("late-arriving task completed at %v, want 510", rec.compTimes[1])
		}
	})
}

func TestWorkerChurnStress(t *testing.T) {
	// Heavy random churn with a spare stable worker: every task must
	// complete exactly once, with no counter corruption. Two churn shapes:
	// short tasks under fast churn, long tasks under slow churn (the second
	// lets Condor's checkpoints and back-of-queue requeue come into play).
	shapes := []struct {
		n                           int
		opsMin, opsSpan             float64
		joinSpan, stayMin, staySpan float64
	}{
		{20, 50, 500, 200, 50, 400},
		{15, 100, 2000, 1000, 200, 2000},
	}
	eachModel(t, func(t *testing.T, m model) {
		for _, sh := range shapes {
			f := func(seed uint64) bool {
				eng, s, rec := m.start()
				r := sim.NewRNG(seed)
				specs := make([]bot.Task, sh.n)
				for i := range specs {
					specs[i] = bot.Task{ID: i, NOps: sh.opsMin + r.Float64()*sh.opsSpan}
				}
				s.Submit(middleware.Batch{ID: "b", Tasks: specs})
				s.WorkerJoin(&middleware.Worker{ID: 999, Power: 1})
				for i := 0; i < 5; i++ {
					w := &middleware.Worker{ID: i, Power: 0.5 + r.Float64()}
					at := r.Float64() * sh.joinSpan
					dur := sh.stayMin + r.Float64()*sh.staySpan
					eng.At(at, func() { s.WorkerJoin(w) })
					eng.At(at+dur, func() { s.WorkerLeave(w) })
				}
				eng.Run()
				if !s.Done("b") {
					return false
				}
				for i := 0; i < sh.n; i++ {
					if rec.completed[i] != 1 {
						return false
					}
				}
				p := s.Progress("b")
				return p.Completed == sh.n && p.Running == 0 && p.Queued == 0 && p.EverAssigned == sh.n
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
				t.Fatal(err)
			}
		}
	})
}
