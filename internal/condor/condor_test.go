package condor

import (
	"testing"

	"spequlos/internal/bot"
	"spequlos/internal/middleware"
	"spequlos/internal/sim"
	"spequlos/internal/xwhep"
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

func TestCheckpointMigrationPreservesWork(t *testing.T) {
	eng := sim.NewEngine()
	cfg := Config{PollInterval: 300, CheckpointPeriod: 900}
	s := New(eng, cfg)
	rec := newRecorder()
	s.AddListener(rec)
	// 3600 s of work at power 1. The first machine dies at t=2000: two
	// 900-s checkpoints exist, preserving 1800 s of work.
	s.Submit(middleware.Batch{ID: "b", Tasks: tasks(3600)})
	w1 := &middleware.Worker{ID: 1, Power: 1}
	w2 := &middleware.Worker{ID: 2, Power: 1}
	s.WorkerJoin(w1)
	eng.At(2000, func() { s.WorkerLeave(w1) })
	eng.At(2000, func() { s.WorkerJoin(w2) })
	eng.Run()
	// Detection at 2000+150 (half poll interval); remaining work
	// 3600−1800 = 1800 s on w2 → completion at 2150+1800 = 3950.
	if rec.compTimes[0] != 3950 {
		t.Fatalf("completed at %v, want 3950 (checkpoint migration)", rec.compTimes[0])
	}
	if rec.completed[0] != 1 {
		t.Fatalf("completed %d times", rec.completed[0])
	}
}

func TestNoCheckpointLosesAllWork(t *testing.T) {
	eng := sim.NewEngine()
	s := New(eng, DefaultConfig())
	rec := newRecorder()
	s.AddListener(rec)
	// Dies at t=500, before the first 900-s checkpoint: full restart.
	s.Submit(middleware.Batch{ID: "b", Tasks: tasks(3600)})
	w1 := &middleware.Worker{ID: 1, Power: 1}
	w2 := &middleware.Worker{ID: 2, Power: 1}
	s.WorkerJoin(w1)
	eng.At(500, func() { s.WorkerLeave(w1) })
	eng.At(500, func() { s.WorkerJoin(w2) })
	eng.Run()
	// Detection at 650, full 3600 s on w2 → 4250.
	if rec.compTimes[0] != 4250 {
		t.Fatalf("completed at %v, want 4250 (restart from zero)", rec.compTimes[0])
	}
}

func TestFasterDetectionThanXWHEP(t *testing.T) {
	// Condor's poll-based detection (150 s expected) beats XWHEP's
	// 930 s heartbeat timeout for the same failure pattern.
	eng := sim.NewEngine()
	s := New(eng, DefaultConfig())
	rec := newRecorder()
	s.AddListener(rec)
	s.Submit(middleware.Batch{ID: "b", Tasks: tasks(1000)})
	w1 := &middleware.Worker{ID: 1, Power: 1}
	s.WorkerJoin(w1)
	eng.At(100, func() { s.WorkerLeave(w1) })
	eng.At(100, func() { s.WorkerJoin(&middleware.Worker{ID: 2, Power: 1}) })
	eng.Run()
	if rec.compTimes[0] != 100+150+1000 {
		t.Fatalf("completed at %v, want 1250", rec.compTimes[0])
	}
}

func TestConfigDefaults(t *testing.T) {
	// 5-minute polls and 15-minute checkpoints when unset: detection half a
	// poll after the loss, requeue at the back.
	want := xwhep.Model{Name: "CONDOR", DetectDelay: 150, CheckpointPeriod: 900}
	if got := (Config{}).model(); got != want {
		t.Fatalf("defaults: %+v, want %+v", got, want)
	}
	if got := DefaultConfig().model(); got != want {
		t.Fatalf("default config: %+v, want %+v", got, want)
	}
}
