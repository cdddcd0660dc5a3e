package core

import (
	"testing"

	"spequlos/internal/cloud"
	"spequlos/internal/middleware"
	"spequlos/internal/sim"
)

// scriptedServer is idleServer with a progress script and a poll count per
// batch.
type scriptedServer struct {
	idleServer
	script map[string]middleware.Progress
	polls  map[string]int
}

func (s *scriptedServer) Progress(id string) middleware.Progress {
	s.polls[id]++
	return s.script[id]
}

// complete scripts the batch as done and reports its last task to the
// listeners; withBatchEvent also fires BatchCompleted, which makes the
// service finalize on the spot instead of at its next tick.
func (s *scriptedServer) complete(id string, at float64, withBatchEvent bool) {
	p := s.script[id]
	p.Completed, p.Running = p.Size, 0
	s.script[id] = p
	s.listeners.TaskCompleted(id, p.Size-1, nil, at)
	if withBatchEvent {
		s.listeners.BatchCompleted(id, at)
	}
}

func liveOrderIDs(svc *Service) []string {
	var ids []string
	for _, qb := range svc.mon.Order {
		ids = append(ids, qb.ID)
	}
	return ids
}

// The service's order lists live batches only: a finalized batch leaves it at
// the next tick, the others keep their registration order, no later tick
// polls the finalized one, Usage and Predict still answer for it, and the
// ticker stops when the last batch is finalized.
func TestLiveOrderDropsFinalizedBatches(t *testing.T) {
	eng := sim.NewEngine()
	srv := &scriptedServer{idleServer: idleServer{eng: eng}, script: map[string]middleware.Progress{}, polls: map[string]int{}}
	simCloud := cloud.NewSimCloud(eng, sim.NewRNG(7))
	svc := NewService(eng, simCloud, Config{Strategy: DefaultStrategy(), MonitorPeriod: 60})
	for _, id := range []string{"a", "b", "c"} {
		srv.script[id] = middleware.Progress{Size: 4, Arrived: 4, Completed: 2, EverAssigned: 4, Running: 2}
		if err := svc.RegisterQoS("u", id, "env", 4, "", 0, srv); err != nil {
			t.Fatal(err)
		}
	}
	wantOrder := func(when string, want ...string) {
		t.Helper()
		got := liveOrderIDs(svc)
		if len(got) != len(want) {
			t.Fatalf("%s: order = %v, want %v", when, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: order = %v, want %v", when, got, want)
			}
		}
	}
	eng.RunUntil(61)
	wantOrder("after the first tick", "a", "b", "c")

	// b completes between ticks and is finalized by its completion event.
	eng.At(90, func() { srv.complete("b", 90, true) })
	eng.RunUntil(91)
	if !svc.mon.Batches["b"].Finalized {
		t.Fatal("b not finalized by its completion event")
	}
	pollsB := srv.polls["b"]
	eng.RunUntil(121)
	wantOrder("after the tick that follows b's finalization", "a", "c")

	// Task events for a finalized batch (a late replica) must not bring it back.
	eng.At(150, func() {
		srv.listeners.TaskAssigned("b", 0, 150)
		srv.listeners.TaskAssigned("a", 0, 150)
	})
	pollsA := srv.polls["a"]
	eng.RunUntil(181)
	if srv.polls["a"] == pollsA {
		t.Fatal("a saw task activity but was not polled")
	}
	if got := srv.polls["b"]; got != pollsB {
		t.Fatalf("b polled %d more times after its finalization", got-pollsB)
	}
	u, err := svc.Usage("b")
	if err != nil || u.TriggeredAt != -1 || u.InstancesStarted != 0 {
		t.Fatalf("Usage(b) after finalization = %+v, %v", u, err)
	}
	if p, err := svc.Oracle.Predict(svc.mon.Batches["b"].bi, eng.Now()); err != nil || p.CompletedFraction != 1 || p.PredictedTime <= 0 {
		t.Fatalf("prediction for b after finalization = %+v, %v", p, err)
	}
	if got := srv.polls["b"]; got != pollsB {
		t.Fatalf("Usage polled b %d times after its finalization", got-pollsB)
	}

	// c completes without a batch event (as on a sharded kernel): the next
	// tick finalizes it, the one after drops it.
	eng.At(200, func() { srv.complete("c", 200, false) })
	eng.RunUntil(241)
	if !svc.mon.Batches["c"].Finalized {
		t.Fatal("c not finalized by the tick after its completion")
	}
	wantOrder("after the tick that finalized c", "a", "c")
	eng.RunUntil(301)
	wantOrder("after the tick that follows c's finalization", "a")
	if svc.drv.ticker == nil {
		t.Fatal("ticker stopped while a is live")
	}

	eng.At(310, func() { srv.complete("a", 310, true) })
	eng.Run() // must drain: the tick that finds no live batch stops the ticker
	wantOrder("after the last finalization")
	if svc.drv.ticker != nil || eng.Pending() != 0 {
		t.Fatalf("ticker still armed with no live batch (%d events pending)", eng.Pending())
	}
	for _, id := range []string{"a", "b", "c"} {
		if _, err := svc.Usage(id); err != nil {
			t.Errorf("Usage(%s) after every batch finalized: %v", id, err)
		}
	}
}
