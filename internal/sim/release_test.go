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
			e.AfterOp(1.5, op, Payload{A: p.A, I: p.I + 1})
		}
	})
	for i := 0; i < 4; i++ {
		e.AtOp(Time(i), op, Payload{A: &log, I: int32(i)})
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
// pending and cancelled ones on the freelist, resets it as a campaign's cell
// arena does between cells, and checks what the next cell would get: the
// state of a new engine (slots handed out from 0 in index order, each once),
// no pointer into the previous cell, and old handles dead.
func TestReleasedEngineIsFresh(t *testing.T) {
	want := churnScript(new(Engine))

	e := new(Engine)
	type big struct{ pad [64]byte }
	op := e.RegisterOp(func(Payload) {})
	var pending, fired []Event
	for i := 0; i < 50; i++ {
		ev := e.AtOp(Time(i), op, Payload{A: &big{}, I: int32(i)})
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
	// Cancel every third pending event: their slots sit on the freelist at
	// the reset, among the fired ones.
	for i := 0; i < len(pending); i += 3 {
		e.Cancel(pending[i])
	}
	if e.Pending() == 0 || e.Executed() == 0 || len(e.free) == 0 {
		t.Fatalf("setup: %d pending, %d executed, %d free", e.Pending(), e.Executed(), len(e.free))
	}
	for i, ev := range pending {
		if ev.Pending() != (i%3 != 0) {
			t.Fatalf("setup: pending event %d reports pending %v", i, ev.Pending())
		}
	}
	arena := len(e.slots)

	e.Reset()

	if e.Now() != 0 || e.Executed() != 0 || e.Pending() != 0 || e.Step() {
		t.Fatalf("after reset: now %v, executed %d, pending %d", e.Now(), e.Executed(), e.Pending())
	}
	if _, ok := e.NextEventTime(); ok {
		t.Fatal("after reset: an event is still queued")
	}
	for _, s := range e.slots[:cap(e.slots)] {
		if s.pay != (Payload{}) || s.op != 0 {
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

	// The next user fills the same slots and more: they are handed out from
	// slot 0 in index order, none twice, and handles from before must not
	// see or cancel its events.
	fresh := make([]Event, arena+50)
	fires := make([]int, len(fresh))
	for i := range fresh {
		fresh[i] = e.At(Time(i%7), func() { fires[i]++ })
		if fresh[i].idx != int32(i) {
			t.Fatalf("event %d of the next user got slot %d, want %d", i, fresh[i].idx, i)
		}
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
	e.Run()
	for i, n := range fires {
		if n != 1 {
			t.Fatalf("event %d of the next user fired %d times, want 1", i, n)
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
