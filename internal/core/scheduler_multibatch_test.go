package core

import (
	"testing"

	"spequlos/internal/bot"
	"spequlos/internal/cloud"
	"spequlos/internal/middleware"
	"spequlos/internal/sim"
	"spequlos/internal/xwhep"
)

// pollCounter wraps a Server and counts the monitor's per-batch polls.
type pollCounter struct {
	middleware.Server
	polls int
}

func (p *pollCounter) Progress(id string) middleware.Progress {
	p.polls++
	return p.Server.Progress(id)
}

// completionTimes records per-batch completion instants.
type completionTimes struct {
	times map[string]float64
	done  *int
}

func (c completionTimes) TaskAssigned(string, int, float64)  {}
func (c completionTimes) TaskCompleted(string, int, float64) {}
func (c completionTimes) BatchCompleted(id string, at float64) {
	if _, ok := c.times[id]; !ok {
		c.times[id] = at
		*c.done++
	}
}

// TestMultiBatchPollEconomy pins the due-list invariant at the core layer:
// with a count-driven trigger the monitor polls only batches that saw task
// activity since their last step. Fifty idle batches cost exactly one poll
// each (the tick after registration) over five monitor periods.
func TestMultiBatchPollEconomy(t *testing.T) {
	eng := sim.NewEngine()
	srv := &pollCounter{Server: xwhep.New(eng, xwhep.DefaultConfig())}
	simCloud := cloud.NewSimCloud(eng, sim.NewRNG(7))
	svc := NewService(eng, srv, simCloud, Config{Strategy: DefaultStrategy(), MonitorPeriod: 60})

	const batches = 50
	for i := 0; i < batches; i++ {
		id := string(rune('A'+i%26)) + string(rune('a'+i/26))
		if err := svc.RegisterQoS("u", id, "env", 4); err != nil {
			t.Fatal(err)
		}
		specs := make([]bot.Task, 4)
		for j := range specs {
			specs[j] = bot.Task{ID: j, NOps: 1e12} // effectively never finishes
		}
		srv.Submit(middleware.Batch{ID: id, Tasks: specs})
	}
	// No worker ever joins, so after the first tick drains the registration
	// dirty marks, the due list stays empty.
	eng.RunUntil(60 + 1)
	if got := srv.polls; got != batches {
		t.Fatalf("polls on the first tick with %d idle batches = %d, want one each", batches, got)
	}
	eng.RunUntil(5*60 + 1)
	if got := srv.polls; got != batches {
		t.Fatalf("polls over the next four ticks = %d, want 0", got-batches)
	}
}
