package sim

import (
	"fmt"
	"testing"
)

// churnScript drives an engine through closures, op events, a ticker and a
// cancellation, and returns what fired, in order, with the clock.
func churnScript(e *Engine) []string {
	var log []string
	note := func(s string) { log = append(log, fmt.Sprintf("%s@%g", s, e.Now())) }
	var op Op
	op = e.RegisterOp(func(p Payload) {
		note(fmt.Sprintf("op%d", p.I))
		if p.I < 6 {
			e.AfterOp(p.X, op, Payload{A: p.A, I: p.I + 1, X: p.X})
		}
	})
	for i := 0; i < 4; i++ {
		e.AtOp(Time(i), op, Payload{A: &log, I: int32(i), X: 1.5})
		e.At(Time(i)+0.5, func() { note("fn") })
	}
	doomed := e.At(2.25, func() { note("cancelled") })
	e.At(2, func() { e.Cancel(doomed) })
	tk := e.NewTicker(2, func(Time) { note("tick") })
	e.At(7, tk.Stop)
	e.Run()
	log = append(log, fmt.Sprintf("executed=%d", e.Executed()))
	return log
}

// TestReleasedEngineIsFresh stops an engine with closure and op events
// pending, resets it as a campaign's cell arena does between cells, and
// checks what the next cell would get: the state of a new engine, no pointer
// into the previous cell, and old handles dead.
func TestReleasedEngineIsFresh(t *testing.T) {
	want := churnScript(new(Engine))

	e := new(Engine)
	type big struct{ pad [64]byte }
	op := e.RegisterOp(func(Payload) {})
	var pending, fired []Event
	for i := 0; i < 50; i++ {
		ev := e.AtOp(Time(i), op, Payload{A: &big{}, B: &big{}, I: int32(i)})
		fn := e.At(Time(i)+0.5, func() {})
		if i < 20 {
			fired = append(fired, ev, fn)
		} else {
			pending = append(pending, ev, fn)
		}
	}
	e.NewTicker(3, func(Time) {})
	e.At(-1, func() {}) // one clamped
	e.RunUntil(19.75)
	if e.Pending() == 0 || e.Executed() == 0 {
		t.Fatalf("setup: %d pending, %d executed", e.Pending(), e.Executed())
	}
	for _, ev := range pending {
		if !ev.Pending() {
			t.Fatal("setup: a scheduled event is not pending")
		}
	}

	e.Reset()

	if e.Now() != 0 || e.Executed() != 0 || e.Pending() != 0 || e.Step() {
		t.Fatalf("after reset: now %v, executed %d, pending %d", e.Now(), e.Executed(), e.Pending())
	}
	if _, ok := e.NextEventTime(); ok {
		t.Fatal("after reset: an event is still queued")
	}
	for _, s := range e.slots[:cap(e.slots)] {
		if s.fn != nil || s.pay != (Payload{}) || s.op != 0 {
			t.Fatalf("after reset: slot retains %+v", s)
		}
	}
	for _, fn := range e.ops[:cap(e.ops)] {
		if fn != nil {
			t.Fatal("after reset: a handler is still registered")
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("after reset: an op of the previous user could be scheduled")
			}
		}()
		e.AtOp(1, op, Payload{})
	}()

	// The next user fills the same slots; handles from before must not see or
	// cancel its events.
	var fresh []Event
	for i := 0; i < 120; i++ {
		fresh = append(fresh, e.At(Time(i), func() {}))
	}
	for _, ev := range append(pending, fired...) {
		if ev.Pending() {
			t.Fatal("a handle from before the reset reports pending")
		}
		e.Cancel(ev)
	}
	for _, ev := range fresh {
		if !ev.Pending() {
			t.Fatal("a handle from before the reset cancelled a new event")
		}
	}

	// Twice, so the second run starts from an arena the first one grew.
	for run := 0; run < 2; run++ {
		e.Reset()
		if got := churnScript(e); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("run %d: reset engine ran\n%v\nnew engine ran\n%v", run, got, want)
		}
	}
}
