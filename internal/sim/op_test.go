package sim

import (
	"math"
	"testing"
)

func TestOpEventFiresWithPayload(t *testing.T) {
	e := NewEngine()
	type worker struct{ id int }
	w := &worker{id: 7}
	var got []Payload
	op := e.RegisterOp(func(p Payload) { got = append(got, p) })
	e.AtOp(5, op, Payload{A: w, I: 42})
	e.AfterOp(10, op, Payload{I: -1})
	e.Run()
	if len(got) != 2 {
		t.Fatalf("fired %d op events, want 2", len(got))
	}
	if got[0].A.(*worker) != w || got[0].I != 42 {
		t.Fatalf("first payload = %+v, want A=w I=42", got[0])
	}
	if got[1].I != -1 {
		t.Fatalf("second payload I = %d, want -1", got[1].I)
	}
	if e.Now() != 10 {
		t.Fatalf("clock = %v, want 10", e.Now())
	}
}

func TestOpAndClosureEventsInterleaveFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	op := e.RegisterOp(func(p Payload) { order = append(order, int(p.I)) })
	// Same-instant events must fire in scheduling order regardless of kind.
	e.At(3, func() { order = append(order, 0) })
	e.AtOp(3, op, Payload{I: 1})
	e.At(3, func() { order = append(order, 2) })
	e.AtOp(3, op, Payload{I: 3})
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want [0 1 2 3]", order)
		}
	}
}

func TestOpEventCancelAndSlotReuse(t *testing.T) {
	e := NewEngine()
	fired := 0
	op := e.RegisterOp(func(p Payload) { fired++ })
	ev := e.AtOp(5, op, Payload{I: 9})
	e.Cancel(ev)
	if ev.Pending() {
		t.Fatal("cancelled op event still pending")
	}
	// The recycled slot must not leak the op or payload into a closure event.
	done := false
	e.At(6, func() { done = true })
	e.Run()
	if fired != 0 {
		t.Fatalf("cancelled op event fired %d times", fired)
	}
	if !done {
		t.Fatal("closure event on recycled slot did not fire")
	}
}

func TestOpValidation(t *testing.T) {
	e := NewEngine()
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("RegisterOp(nil)", func() { e.RegisterOp(nil) })
	mustPanic("AtOp zero op", func() { e.AtOp(1, 0, Payload{}) })
	mustPanic("AtOp unregistered op", func() { e.AtOp(1, 3, Payload{}) })
	op := e.RegisterOp(func(Payload) {})
	mustPanic("AtOp NaN", func() { e.AtOp(Time(math.NaN()), op, Payload{}) })
	mustPanic("AfterOp Inf", func() { e.AfterOp(math.Inf(1), op, Payload{}) })
}

// TestAfterOpPastLargestTimePanics: a finite delay whose sum with the clock
// overflows to +Inf is refused as AtOp refuses +Inf, not queued at +Inf.
func TestAfterOpPastLargestTimePanics(t *testing.T) {
	e := NewEngine()
	op := e.RegisterOp(func(Payload) {})
	e.RunUntil(1e300)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("AfterOp(MaxFloat64) at now 1e300 did not panic")
			}
		}()
		e.AfterOp(math.MaxFloat64, op, Payload{})
	}()
	if e.Pending() != 0 {
		t.Fatalf("%d events queued after the refused AfterOp, want 0", e.Pending())
	}
	if ev := e.AfterOp(math.MaxFloat64/2, op, Payload{}); ev.At() != 1e300+math.MaxFloat64/2 {
		t.Fatalf("finite sum scheduled at %v", ev.At())
	}
}

func TestOpPastTimeClampsToNow(t *testing.T) {
	e := NewEngine()
	var at Time = -1
	op := e.RegisterOp(func(p Payload) { at = e.Now() })
	e.At(10, func() { e.AtOp(4, op, Payload{}) })
	e.Run()
	if at != 10 {
		t.Fatalf("past-scheduled op fired at %v, want clamped to 10", at)
	}
}

// TestOpSteadyStateAllocs pins the headline property of the op-code path:
// scheduling and firing op events with pointer payloads allocates nothing
// once the arena is warm.
func TestOpSteadyStateAllocs(t *testing.T) {
	e := NewEngine()
	type task struct{ n int }
	tk := &task{}
	op := e.RegisterOp(func(p Payload) { p.A.(*task).n++ })
	for i := 0; i < 64; i++ {
		e.AfterOp(1, op, Payload{A: tk, I: int32(i)})
	}
	e.Run()
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			e.AfterOp(1, op, Payload{A: tk, I: int32(i)})
		}
		e.Run()
	})
	if allocs > 0 {
		t.Fatalf("op-code path allocates %.1f objects per 64-event batch in steady state, want 0", allocs)
	}
}

// TestTickerRearmAllocs is the regression test for the per-rearm closure
// the Ticker used to allocate: rearming now goes through the shared ticker
// op, so a running ticker must be allocation-free in steady state.
func TestTickerRearmAllocs(t *testing.T) {
	e := NewEngine()
	ticks := 0
	e.NewTicker(1, func(Time) { ticks++ })
	// Warm up: arena slot + any lazy registration.
	e.RunUntil(8)
	allocs := testing.AllocsPerRun(100, func() {
		e.RunUntil(e.Now() + 16)
	})
	if allocs > 0 {
		t.Fatalf("ticker rearm allocates %.1f objects per 16 ticks, want 0", allocs)
	}
	if ticks < 8 {
		t.Fatalf("ticker fired %d times during warmup, want >= 8", ticks)
	}
}

func TestTickerStopStillWorksOnOpPath(t *testing.T) {
	e := NewEngine()
	ticks := 0
	var tk *Ticker
	tk = e.NewTicker(2, func(Time) {
		ticks++
		if ticks == 3 {
			tk.Stop()
		}
	})
	e.RunUntil(100)
	if ticks != 3 {
		t.Fatalf("ticker fired %d times after Stop at 3, want 3", ticks)
	}
}
