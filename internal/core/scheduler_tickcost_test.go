package core

import (
	"fmt"
	"testing"
	"time"

	"spequlos/internal/bot"
	"spequlos/internal/cloud"
	"spequlos/internal/middleware"
	"spequlos/internal/sim"
)

// idleServer is a minimal middleware.Server with scripted progress, used to
// measure pure monitor-tick cost: batches never finish, workers never join,
// and the test injects task activity directly through the listeners.
type idleServer struct {
	listeners middleware.Listeners
	progress  middleware.Progress
}

func (s *idleServer) MiddlewareName() string              { return "STUB" }
func (s *idleServer) Submit(middleware.Batch)             {}
func (s *idleServer) WorkerJoin(*middleware.Worker)       {}
func (s *idleServer) WorkerLeave(*middleware.Worker)      {}
func (s *idleServer) Progress(string) middleware.Progress { return s.progress }
func (s *idleServer) Done(string) bool                    { return false }
func (s *idleServer) Incomplete(string) []bot.Task        { return nil }
func (s *idleServer) MarkCompleted(string, int)           {}
func (s *idleServer) WorkerBusy(*middleware.Worker) bool  { return false }
func (s *idleServer) SetReschedule(bool)                  {}
func (s *idleServer) AddListener(l middleware.Listener)   { s.listeners = append(s.listeners, l) }

// tickWallTime measures the wall-clock cost of `ticks` monitor ticks over
// `batches` registered QoS batches of which exactly `activePerTick` see task
// activity each tick — the fixed activity budget. The warm-up tick that
// drains the registration dirty marks is excluded.
func tickWallTime(b int, ticks, activePerTick int) time.Duration {
	eng := sim.NewEngine()
	srv := &idleServer{progress: middleware.Progress{Size: 8, Arrived: 8, Running: 8}}
	simCloud := cloud.NewSimCloud(eng, sim.NewRNG(7))
	svc := NewService(eng, srv, simCloud, Config{Strategy: DefaultStrategy(), MonitorPeriod: 60})

	ids := make([]string, b)
	for i := range ids {
		ids[i] = fmt.Sprintf("b%05d", i)
		if err := svc.RegisterQoS("u", ids[i], "env", 8); err != nil {
			panic(err)
		}
	}
	// Fixed activity budget: the SAME number of batches sees task events per
	// tick no matter how many are registered, mirroring a DG whose worker
	// pool (not its tenant count) bounds throughput.
	for k := 1; k <= ticks; k++ {
		at := 60.0 + float64(k)*60 - 30
		eng.At(at, func() {
			for j := 0; j < activePerTick; j++ {
				srv.listeners.TaskAssigned(ids[j%len(ids)], j, at)
			}
		})
	}
	eng.RunUntil(61) // warm-up: drain registration dirty marks
	start := time.Now()
	eng.RunUntil(61 + float64(ticks)*60)
	return time.Since(start)
}

// TestTickWallTimeSublinearInBatchCount pins the due-list scheduler's cost:
// with a fixed per-tick activity budget, the monitor tick
// over 2000 registered batches costs at most 6× the tick over 200 — i.e.
// per-tick work tracks infrastructure activity, not tenant count. (The
// remaining growth is the due-list scan, which is a few ns per registered
// batch.) Skipped under -race: the detector's slowdown is not what the bound
// is about.
func TestTickWallTimeSublinearInBatchCount(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("wall-clock scaling bound is meaningless under the race detector")
	}
	if testing.Short() {
		t.Skip("timing test")
	}
	const ticks, budget = 40, 100
	min := func(n int) time.Duration {
		best := time.Duration(1<<62 - 1)
		for i := 0; i < 3; i++ {
			if d := tickWallTime(n, ticks, budget); d < best {
				best = d
			}
		}
		return best
	}
	small := min(200)
	large := min(2000)
	t.Logf("tick wall-time: 200 batches %v, 2000 batches %v (%.2fx)",
		small, large, float64(large)/float64(small))
	if large > 6*small {
		t.Fatalf("2000-batch ticks took %v, more than 6× the 200-batch %v", large, small)
	}
}
