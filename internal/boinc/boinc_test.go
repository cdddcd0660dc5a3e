package boinc

import (
	"testing"
	"testing/quick"

	"spequlos/internal/bot"
	"spequlos/internal/middleware"
	"spequlos/internal/sim"
)

type recorder struct {
	completed map[int]int
	compTimes map[int]float64
	batchDone float64
}

func newRecorder() *recorder {
	return &recorder{completed: map[int]int{}, compTimes: map[int]float64{}, batchDone: -1}
}
func (r *recorder) TaskAssigned(string, int, float64) {}
func (r *recorder) TaskCompleted(b string, id int, at float64) {
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

func TestQuorumCompletion(t *testing.T) {
	eng := sim.NewEngine()
	s := New(eng, DefaultConfig())
	rec := newRecorder()
	s.AddListener(rec)
	s.Submit(middleware.Batch{ID: "b", Tasks: tasks(100)})
	// Powers 1, 2, 4: replicas finish at 100, 50, 25. Quorum of 2 is
	// reached when the second-fastest returns, at t=50.
	s.WorkerJoin(&middleware.Worker{ID: 1, Power: 1})
	s.WorkerJoin(&middleware.Worker{ID: 2, Power: 2})
	s.WorkerJoin(&middleware.Worker{ID: 3, Power: 4})
	eng.Run()
	if rec.compTimes[0] != 50 {
		t.Fatalf("completed at %v, want 50 (min_quorum=2)", rec.compTimes[0])
	}
	if rec.completed[0] != 1 {
		t.Fatalf("completed %d times", rec.completed[0])
	}
	if rec.batchDone != 50 {
		t.Fatalf("batch done at %v", rec.batchDone)
	}
}

func TestSlowestReplicaAbortedOnQuorum(t *testing.T) {
	eng := sim.NewEngine()
	s := New(eng, DefaultConfig())
	s.Submit(middleware.Batch{ID: "b", Tasks: tasks(100, 400)})
	s.WorkerJoin(&middleware.Worker{ID: 1, Power: 1})
	s.WorkerJoin(&middleware.Worker{ID: 2, Power: 1})
	s.WorkerJoin(&middleware.Worker{ID: 3, Power: 1})
	eng.Run()
	// After wu0 completes at t=100 (w1, w2), w3's replica of wu0 is
	// aborted, freeing it for wu1. If aborts did not work, wu1 would
	// starve for its second replica.
	if !s.Done("b") {
		t.Fatal("batch incomplete: quorum aborts not freeing workers")
	}
}

func TestOneResultPerWorker(t *testing.T) {
	eng := sim.NewEngine()
	s := New(eng, DefaultConfig())
	rec := newRecorder()
	s.AddListener(rec)
	s.Submit(middleware.Batch{ID: "b", Tasks: tasks(100)})
	// A single worker can never satisfy a quorum of 2.
	s.WorkerJoin(&middleware.Worker{ID: 1, Power: 1})
	eng.RunUntil(100000)
	if s.Done("b") {
		t.Fatal("quorum satisfied by one worker")
	}
	if rec.completed[0] != 0 {
		t.Fatal("task completed without quorum")
	}
	// A second worker unblocks it.
	s.WorkerJoin(&middleware.Worker{ID: 2, Power: 1})
	eng.Run()
	if !s.Done("b") {
		t.Fatal("batch incomplete with two workers")
	}
}

func TestDeadlineReissueAfterHostLoss(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.TargetNResults = 2
	cfg.MinQuorum = 2
	cfg.DelayBound = 1000
	s := New(eng, cfg)
	rec := newRecorder()
	s.AddListener(rec)
	s.Submit(middleware.Batch{ID: "b", Tasks: tasks(100)})
	w1 := &middleware.Worker{ID: 1, Power: 1}
	w2 := &middleware.Worker{ID: 2, Power: 1}
	w3 := &middleware.Worker{ID: 3, Power: 1}
	s.WorkerJoin(w1)
	s.WorkerJoin(w2)
	// w2 dies mid-computation and never returns; its loss is only
	// discovered at the delay_bound (t=1000), when a fresh replica is
	// created. w3 joins at t=1500 and takes the replacement.
	eng.At(50, func() { s.WorkerLeave(w2) })
	eng.At(1500, func() { s.WorkerJoin(w3) })
	eng.Run()
	// w1's result at t=100; replacement replica assigned at t=1500,
	// result at t=1600 → quorum.
	if rec.compTimes[0] != 1600 {
		t.Fatalf("completed at %v, want 1600", rec.compTimes[0])
	}
}

func TestCheckpointResumeOnRejoin(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.TargetNResults = 2
	cfg.MinQuorum = 2
	s := New(eng, cfg)
	rec := newRecorder()
	s.AddListener(rec)
	s.Submit(middleware.Batch{ID: "b", Tasks: tasks(100)})
	w1 := &middleware.Worker{ID: 1, Power: 1}
	w2 := &middleware.Worker{ID: 2, Power: 1}
	s.WorkerJoin(w1)
	s.WorkerJoin(w2)
	// w2 checkpoints at t=60 (40 s of work left) and returns at t=500:
	// its result arrives at 540, completing the quorum with w1's t=100.
	eng.At(60, func() { s.WorkerLeave(w2) })
	eng.At(500, func() { s.WorkerJoin(w2) })
	eng.Run()
	if rec.compTimes[0] != 540 {
		t.Fatalf("completed at %v, want 540 (checkpoint resume)", rec.compTimes[0])
	}
	if rec.completed[0] != 1 {
		t.Fatalf("completed %d times", rec.completed[0])
	}
}

func TestResumeOfCompletedWorkunitAborts(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.TargetNResults = 3
	cfg.MinQuorum = 2
	s := New(eng, cfg)
	s.Submit(middleware.Batch{ID: "b", Tasks: tasks(100, 100)})
	w1 := &middleware.Worker{ID: 1, Power: 1}
	w2 := &middleware.Worker{ID: 2, Power: 1}
	w3 := &middleware.Worker{ID: 3, Power: 1}
	s.WorkerJoin(w1)
	s.WorkerJoin(w2)
	s.WorkerJoin(w3)
	// w3 leaves with a checkpointed replica of wu0; wu0 completes via
	// w1+w2 at t=100. When w3 returns, its stale replica is aborted and it
	// must pick up wu1 instead.
	eng.At(50, func() { s.WorkerLeave(w3) })
	eng.At(200, func() { s.WorkerJoin(w3) })
	eng.Run()
	if !s.Done("b") {
		t.Fatal("batch incomplete: returning host did not abort stale replica")
	}
}

func TestLateResultStillCounts(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.TargetNResults = 2
	cfg.MinQuorum = 2
	cfg.DelayBound = 500 // shorter than the slow host's computation
	s := New(eng, cfg)
	rec := newRecorder()
	s.AddListener(rec)
	s.Submit(middleware.Batch{ID: "b", Tasks: tasks(1000)})
	s.WorkerJoin(&middleware.Worker{ID: 1, Power: 10}) // result at 100
	s.WorkerJoin(&middleware.Worker{ID: 2, Power: 1})  // result at 1000, past deadline
	eng.Run()
	// At t=500 the slow replica expires and a replacement is created, but
	// no third worker exists to run it (worker 1 already returned a
	// result). The late result at t=1000 still completes the quorum.
	if rec.compTimes[0] != 1000 {
		t.Fatalf("completed at %v, want 1000 (late result accepted)", rec.compTimes[0])
	}
	if rec.completed[0] != 1 {
		t.Fatalf("completed %d times", rec.completed[0])
	}
}

func TestRescheduleExtraReplica(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.TargetNResults = 2
	cfg.MinQuorum = 2
	s := New(eng, cfg)
	rec := newRecorder()
	s.AddListener(rec)
	s.SetReschedule(true)
	s.Submit(middleware.Batch{ID: "b", Tasks: tasks(10000)})
	s.WorkerJoin(&middleware.Worker{ID: 1, Power: 1}) // finishes at 10000
	s.WorkerJoin(&middleware.Worker{ID: 2, Power: 1}) // finishes at 10000
	eng.At(100, func() {
		// Two cloud workers: no unsent replicas remain, so Reschedule
		// creates extra replicas; two cloud results complete the quorum.
		s.WorkerJoin(middleware.NewCloudWorker(0, 100, "b"))
		s.WorkerJoin(middleware.NewCloudWorker(1, 100, "b"))
	})
	eng.Run()
	if rec.compTimes[0] != 200 {
		t.Fatalf("completed at %v, want 200 (two cloud replicas at t=100+100)", rec.compTimes[0])
	}
}

func TestMarkCompletedSatisfiesQuorum(t *testing.T) {
	eng := sim.NewEngine()
	s := New(eng, DefaultConfig())
	rec := newRecorder()
	s.AddListener(rec)
	s.Submit(middleware.Batch{ID: "b", Tasks: tasks(1000, 1000)})
	s.WorkerJoin(&middleware.Worker{ID: 1, Power: 1})
	s.WorkerJoin(&middleware.Worker{ID: 2, Power: 1})
	eng.At(100, func() { s.MarkCompleted("b", 0) })
	eng.Run()
	if rec.compTimes[0] != 100 {
		t.Fatalf("external completion at %v, want 100", rec.compTimes[0])
	}
	if !s.Done("b") {
		t.Fatal("batch incomplete")
	}
	if rec.completed[0] != 1 || rec.completed[1] != 1 {
		t.Fatalf("completion counts wrong: %v", rec.completed)
	}
}

// Churn stress: with a pair of stable workers plus heavy volatile churn,
// every workunit must complete exactly once and every completed workunit
// must have reached quorum through distinct workers.
func TestChurnStressInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		eng := sim.NewEngine()
		cfg := DefaultConfig()
		cfg.DelayBound = 2000
		s := New(eng, cfg)
		rec := newRecorder()
		s.AddListener(rec)
		r := sim.NewRNG(seed)
		n := 10
		specs := make([]bot.Task, n)
		for i := range specs {
			specs[i] = bot.Task{ID: i, NOps: 50 + r.Float64()*300}
		}
		s.Submit(middleware.Batch{ID: "b", Tasks: specs})
		s.WorkerJoin(&middleware.Worker{ID: 1000, Power: 1})
		s.WorkerJoin(&middleware.Worker{ID: 1001, Power: 1.5})
		s.WorkerJoin(&middleware.Worker{ID: 1002, Power: 0.7})
		for i := 0; i < 6; i++ {
			w := &middleware.Worker{ID: i, Power: 0.5 + r.Float64()}
			at := r.Float64() * 500
			dur := 100 + r.Float64()*500
			eng.At(at, func() { s.WorkerJoin(w) })
			eng.At(at+dur, func() { s.WorkerLeave(w) })
		}
		eng.Run()
		if !s.Done("b") {
			return false
		}
		for i := 0; i < n; i++ {
			if rec.completed[i] != 1 {
				return false
			}
		}
		for _, wu := range s.Tasks("b") {
			if wu.M.results < s.cfg.MinQuorum {
				return false
			}
			if len(wu.M.returned) < s.cfg.MinQuorum {
				return false
			}
		}
		p := s.Progress("b")
		return p.Completed == n && p.Running == 0 && p.Queued == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	eng := sim.NewEngine()
	s := New(eng, Config{})
	if s.cfg.TargetNResults != 3 || s.cfg.MinQuorum != 2 || s.cfg.DelayBound != 86400 {
		t.Fatalf("defaults wrong: %+v", s.cfg)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("quorum > replicas accepted")
		}
	}()
	New(eng, Config{TargetNResults: 2, MinQuorum: 3})
}

func TestMiddlewareName(t *testing.T) {
	if New(sim.NewEngine(), DefaultConfig()).MiddlewareName() != "BOINC" {
		t.Fatal("name wrong")
	}
}
