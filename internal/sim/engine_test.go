package sim

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestEngineFiresInOrder(t *testing.T) {
	e := NewEngine()
	var got []float64
	for _, at := range []float64{5, 1, 3, 2, 4} {
		at := at
		e.At(at, func() { got = append(got, at) })
	}
	e.Run()
	if !sort.Float64sAreSorted(got) {
		t.Fatalf("events fired out of order: %v", got)
	}
	if len(got) != 5 {
		t.Fatalf("fired %d events, want 5", len(got))
	}
	if e.Now() != 5 {
		t.Fatalf("clock = %v, want 5", e.Now())
	}
}

func TestEngineSameTimeFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(7, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.At(1, func() { fired = true })
	e.Cancel(ev)
	e.Cancel(ev) // idempotent
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if ev.Pending() {
		t.Fatal("cancelled event still pending")
	}
}

func TestEngineCancelMiddleOfHeap(t *testing.T) {
	e := NewEngine()
	var got []float64
	evs := make([]Event, 0, 100)
	for i := 0; i < 100; i++ {
		at := float64((i * 37) % 100)
		evs = append(evs, e.At(at, func() { got = append(got, at) }))
	}
	for i := 0; i < 100; i += 3 {
		e.Cancel(evs[i])
	}
	e.Run()
	if len(got) != 66 {
		t.Fatalf("fired %d events, want 66", len(got))
	}
	if !sort.Float64sAreSorted(got) {
		t.Fatalf("out of order after cancellations: %v", got)
	}
}

func TestEngineSchedulingInsideEvents(t *testing.T) {
	e := NewEngine()
	var got []float64
	e.At(1, func() {
		e.At(e.Now()+1, func() { got = append(got, e.Now()) })
		e.At(e.Now()+0.5, func() { got = append(got, e.Now()) })
	})
	e.Run()
	want := []float64{1.5, 2}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// Regression test for the past-scheduling fix: events requested before the
// current virtual time are clamped to now, fire in FIFO order after events
// already scheduled at now, and never move the clock backwards.
func TestEnginePastSchedulingClampsToNow(t *testing.T) {
	e := NewEngine()
	var got []string
	e.At(10, func() {
		e.At(10, func() { got = append(got, "present") })
		ev := e.At(5, func() { got = append(got, "past") })
		if ev.At() != 10 {
			t.Errorf("clamped event time = %v, want 10", ev.At())
		}
		if !ev.Pending() {
			t.Error("clamped event not pending")
		}
	})
	e.Run()
	if e.Now() != 10 {
		t.Fatalf("clock = %v, want 10 (must not move backwards)", e.Now())
	}
	if len(got) != 2 || got[0] != "present" || got[1] != "past" {
		t.Fatalf("firing order = %v, want [present past] (FIFO at clamped time)", got)
	}
}

func TestEngineAtPastDoesNotPanicAndStaysOrdered(t *testing.T) {
	e := NewEngine()
	var times []float64
	e.At(3, func() {
		e.At(1, func() { times = append(times, e.Now()) }) // past: clamps to 3
		e.At(4, func() { times = append(times, e.Now()) })
	})
	e.Run()
	if len(times) != 2 || times[0] != 3 || times[1] != 4 {
		t.Fatalf("fired at %v, want [3 4]", times)
	}
}

func TestEngineInvalidTime(t *testing.T) {
	e := NewEngine()
	for _, at := range []Time{math.NaN(), math.Inf(1), math.Inf(-1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%v) did not panic", at)
				}
			}()
			e.At(at, func() {})
		}()
	}
	if e.Pending() != 0 {
		t.Fatalf("%d events queued by invalid times", e.Pending())
	}
}

// An event is an op and its payload: the slot that holds one is 40 bytes,
// and At schedules a prebuilt closure without allocating.
func TestSlotLayout(t *testing.T) {
	if got := unsafe.Sizeof(slot{}); got != 40 {
		t.Fatalf("slot is %d bytes, want 40", got)
	}
	e := NewEngine()
	fn := func() {}
	e.At(0, fn) // registers the call op and grows the arena
	e.Run()
	if allocs := testing.AllocsPerRun(100, func() {
		e.At(1, fn)
		e.Step()
	}); allocs != 0 {
		t.Fatalf("At with a prebuilt closure: %v allocs, want 0", allocs)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		e.At(float64(i), func() { count++ })
	}
	e.RunUntil(5)
	if count != 5 {
		t.Fatalf("count = %d, want 5 (events at t<=5)", count)
	}
	if e.Now() != 5 {
		t.Fatalf("clock = %v, want 5", e.Now())
	}
	e.RunUntil(20)
	if count != 10 || e.Now() != 20 {
		t.Fatalf("after RunUntil(20): count=%d now=%v", count, e.Now())
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	e := NewEngine()
	fired := -1.0
	op := e.RegisterOp(func(Payload) { fired = e.Now() })
	e.At(3, func() { e.AfterOp(-5, op, Payload{}) })
	e.Run()
	if fired != 3 {
		t.Errorf("negative delay fired at %v, want 3", fired)
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine()
	var ticks []float64
	tk := e.NewTicker(10, func(now Time) {
		ticks = append(ticks, now)
	})
	e.At(45, func() { tk.Stop() })
	e.Run()
	want := []float64{10, 20, 30, 40}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
}

func TestTickerStopWithinCallback(t *testing.T) {
	e := NewEngine()
	n := 0
	var tk *Ticker
	tk = e.NewTicker(1, func(Time) {
		n++
		if n == 3 {
			tk.Stop()
		}
	})
	e.Run()
	if n != 3 {
		t.Fatalf("ticker fired %d times, want 3", n)
	}
}

// Property: for any batch of event times, execution order is sorted and the
// count matches.
func TestEventOrderProperty(t *testing.T) {
	f := func(times []uint16) bool {
		e := NewEngine()
		var got []float64
		for _, v := range times {
			at := float64(v)
			e.At(at, func() { got = append(got, at) })
		}
		e.Run()
		return len(got) == len(times) && sort.Float64sAreSorted(got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling a random subset never breaks ordering and fires
// exactly the survivors.
func TestEventCancelProperty(t *testing.T) {
	f := func(times []uint16, seed int64) bool {
		e := NewEngine()
		r := rand.New(rand.NewSource(seed))
		var got []float64
		evs := make([]Event, len(times))
		for i, v := range times {
			at := float64(v)
			evs[i] = e.At(at, func() { got = append(got, at) })
		}
		cancelled := 0
		for _, ev := range evs {
			if r.Intn(2) == 0 {
				e.Cancel(ev)
				cancelled++
			}
		}
		e.Run()
		return len(got) == len(times)-cancelled && sort.Float64sAreSorted(got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestRNGForkIndependentOfConsumption(t *testing.T) {
	a := NewRNG(7)
	b := NewRNG(7)
	for i := 0; i < 50; i++ {
		a.Float64() // consume parent a only
	}
	fa := a.Fork("trace")
	fb := b.Fork("trace")
	for i := 0; i < 20; i++ {
		if fa.Float64() != fb.Float64() {
			t.Fatal("fork depends on parent consumption")
		}
	}
}

func TestRNGForkDistinctLabels(t *testing.T) {
	r := NewRNG(7)
	a := r.Fork("alpha")
	b := r.Fork("beta")
	same := 0
	for i := 0; i < 32; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same == 32 {
		t.Fatal("different labels produced identical streams")
	}
	x := r.ForkN("node", 1)
	y := r.ForkN("node", 2)
	if x.Float64() == y.Float64() && x.Float64() == y.Float64() {
		t.Fatal("ForkN streams for different indices look identical")
	}
}

func TestSeedFrom(t *testing.T) {
	if SeedFrom("a", "b") == SeedFrom("ab") {
		t.Fatal("SeedFrom must separate parts")
	}
	if SeedFrom("x") != SeedFrom("x") {
		t.Fatal("SeedFrom not deterministic")
	}
}

// Pooled-arena safety: a handle to a cancelled event whose slot has been
// recycled for a newer event must not cancel (or report pending for) the
// slot's new occupant.
func TestPooledSlotReuseAfterCancel(t *testing.T) {
	e := NewEngine()
	stale := e.At(5, func() { t.Error("cancelled event fired") })
	e.Cancel(stale)
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after cancel, want 0", e.Pending())
	}
	fired := false
	fresh := e.At(7, func() { fired = true }) // reuses the freed slot
	if fresh.idx != stale.idx {
		t.Fatalf("slot not recycled: fresh idx %d, stale idx %d", fresh.idx, stale.idx)
	}
	if stale.Pending() {
		t.Fatal("stale handle reports pending after slot reuse")
	}
	e.Cancel(stale) // must NOT cancel the new occupant
	e.Cancel(stale)
	if !fresh.Pending() {
		t.Fatal("stale cancel killed the recycled slot's new event")
	}
	e.Run()
	if !fired {
		t.Fatal("recycled-slot event did not fire")
	}
}

// Pooled-arena safety: a handle to a fired event is likewise invalidated.
func TestPooledSlotReuseAfterFire(t *testing.T) {
	e := NewEngine()
	var first Event
	first = e.At(1, func() {
		// The firing slot is recycled before the callback runs; scheduling
		// here lands in the same arena slot with a bumped generation.
		next := e.At(2, func() {})
		if next.idx != first.idx {
			t.Errorf("slot not recycled inside callback: %d vs %d", next.idx, first.idx)
		}
		e.Cancel(first) // stale: must not touch next
		if !next.Pending() {
			t.Error("stale cancel of fired event killed its slot's new event")
		}
	})
	e.Run()
	if e.Executed() != 2 {
		t.Fatalf("executed = %d, want 2", e.Executed())
	}
}

// Same-tick FIFO ordering must survive slot recycling: events scheduled at
// one instant through recycled slots still fire in scheduling order.
func TestSameTickOrderingAcrossRecycledSlots(t *testing.T) {
	e := NewEngine()
	// Create and cancel a batch to build a shuffled freelist.
	evs := make([]Event, 8)
	for i := range evs {
		evs[i] = e.At(1, func() {})
	}
	for _, i := range []int{3, 0, 7, 5, 1, 6, 2, 4} {
		e.Cancel(evs[i])
	}
	var got []int
	for i := 0; i < 8; i++ {
		i := i
		e.At(2, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-tick order broken across recycled slots: %v", got)
		}
	}
}

// The kernel itself must not allocate per event in steady state: slots and
// heap space are recycled. (The closure passed in is the caller's.)
func TestEngineSteadyStateAllocs(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	// Warm up the arena.
	for i := 0; i < 64; i++ {
		e.At(e.Now()+1, fn)
	}
	e.Run()
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			e.At(e.Now()+1, fn)
		}
		e.Run()
	})
	if allocs > 0 {
		t.Fatalf("engine allocates %.1f objects per 64-event batch in steady state, want 0", allocs)
	}
}

// BenchmarkEngineHold is the hold model of the benchmark's sim.event_ns: an
// op event that reschedules itself 1–97 s ahead, with a constant number of
// events pending (the standard and full pool caps, and sim.event_ns's
// 10 000). One op is one Step: a pop, a handler call and a push.
func BenchmarkEngineHold(b *testing.B) {
	for _, pending := range []int{600, 2000, 10_000} {
		b.Run(strconv.Itoa(pending), func(b *testing.B) {
			e := NewEngine()
			var op Op
			op = e.RegisterOp(func(p Payload) {
				e.AfterOp(1+float64(p.I%97), op, Payload{I: p.I + 1})
			})
			for i := 0; i < pending; i++ {
				e.AtOp(float64(i%997), op, Payload{I: int32(i)})
			}
			b.ReportAllocs()
			for b.Loop() {
				e.Step()
			}
		})
	}
}

// BenchmarkEngineReset is a cell arena's engine between cells: an arena
// grown to 5 000 slots, 100 events left queued, then Reset. One op schedules
// the 100 events and resets.
func BenchmarkEngineReset(b *testing.B) {
	e := NewEngine()
	type task struct{ n int }
	tk := &task{}
	op := e.RegisterOp(func(Payload) {})
	for i := 0; i < 5000; i++ {
		e.AtOp(float64(i), op, Payload{A: tk})
	}
	e.Run()
	b.ReportAllocs()
	for b.Loop() {
		op = e.RegisterOp(func(Payload) {})
		for j := 0; j < 100; j++ {
			e.AtOp(float64(j), op, Payload{A: tk, I: int32(j)})
		}
		e.Reset()
	}
}
