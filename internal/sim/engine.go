// Package sim provides a deterministic discrete-event simulation kernel:
// a virtual clock, a cancellable event queue, periodic tickers and labelled
// random-number streams.
//
// All SpeQuloS simulations (middleware servers, availability traces, cloud
// workers, the SpeQuloS monitor loop) are driven by a single Engine. Events
// scheduled at the same instant fire in scheduling order, which makes every
// run reproducible given the same seed.
//
// The kernel is allocation-free on its hot path: events live in an
// index-addressed arena recycled through a freelist, the priority queue is a
// specialized binary heap whose entries carry their (time, sequence) key
// inline next to the arena index (no interface boxing, no slot loaded to
// compare), and the Event handles returned to callers are small values
// carrying a generation counter, so a handle to a fired-and-recycled slot can
// never cancel the slot's next occupant.
//
// Every event is an op-code event: a registered handler index plus an
// inline Payload stored in the arena slot itself, so scheduling allocates
// nothing and the event is a plain value. The simulation hot paths (worker
// churn, task completions, deadlines) register handlers of their own; At
// schedules a func() through a call op the engine registers on first use,
// as NewTicker registers its rearm op.
package sim

import (
	"fmt"
	"math"
)

// Time is virtual time in seconds since the start of the simulation.
type Time = float64

// Event is a cancellable handle to a scheduled callback. It is a small
// value: copies are cheap and the zero value is a valid "no event" handle
// (not pending, cancelling it is a no-op).
type Event struct {
	eng *Engine
	at  Time
	idx int32
	gen uint32
}

// At returns the virtual time the event was scheduled for (after any
// past-time clamping). It stays readable after the event fires.
func (e Event) At() Time { return e.at }

// Pending reports whether the event is still queued.
func (e Event) Pending() bool {
	if e.eng == nil || int(e.idx) >= len(e.eng.slots) {
		return false
	}
	s := &e.eng.slots[e.idx]
	return s.gen == e.gen && s.heapIdx >= 0
}

// Op identifies an event handler registered on an engine with RegisterOp.
// The zero Op is never registered; a free slot holds it. Ops are
// engine-local: an Op registered on one engine must not be scheduled on
// another.
type Op int32

// Payload is the inline argument block of an event, stored directly in the
// event's arena slot. A holds a receiver/argument pointer — storing a
// pointer, or a func value, in an interface does not allocate — and I a
// small integer (an index, a count), so the typical simulation callback
// schedules with zero heap allocations. At's call op keeps its func() in A.
type Payload struct {
	// A is a pointer-shaped argument (e.g. an execution or a batch).
	A any
	// I is an inline integer argument (e.g. a trace-interval index).
	I int32
}

// OpFunc is a registered event handler: it receives the payload the event
// was scheduled with, on the engine's event loop.
type OpFunc func(p Payload)

// slot is one arena cell. A slot is live while heapIdx >= 0; firing or
// cancelling bumps gen and returns the slot to the freelist, invalidating
// every outstanding handle to the previous occupant. A live slot holds its
// op (> 0) and payload inline; its time and sequence number live in its heap
// entry. 40 bytes: the payload's 24, then heapIdx, gen and op.
type slot struct {
	pay     Payload
	heapIdx int32
	gen     uint32
	op      Op
}

// entry is one heap element: the event's ordering key and its arena index.
type entry struct {
	at  Time
	seq uint64
	idx int32
}

// before orders heap entries by (time, scheduling sequence): same-instant
// events fire in FIFO order, which the determinism guarantees rely on.
func (a entry) before(b entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Engine is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use; simulations are deterministic single-goroutine programs.
type Engine struct {
	now      Time
	seq      uint64
	executed uint64

	// slots[:len(slots)] have been handed out since the last reset; push
	// bumps the length into the spare capacity, whose slots keep their
	// generations, before it grows the arena.
	slots []slot
	free  []int32
	heap  []entry // ordered by (at, seq)

	// ops is the registered op-handler table; Op n indexes ops[n-1].
	ops []OpFunc
	// tickerOp is the lazily-registered rearm handler shared by all Tickers,
	// callOp the one At schedules a func() with.
	tickerOp, callOp Op
}

// NewEngine returns an engine with the clock at zero, no event pending and
// no handler registered.
func NewEngine() *Engine { return new(Engine) }

// Reset empties the engine for reuse, as good as new: pending events are
// dropped unfired and every payload and handler pointer is cleared. The
// arena keeps its slots and their generation counters, so an Event handle
// from before the reset reports not pending whatever is scheduled next, and
// hands them out again from slot 0 in index order, as a new engine does.
// It costs O(queued events), not O(arena): a fired or cancelled slot was
// cleared when it was released. A campaign worker resets its cell arena's
// engine between cells.
func (e *Engine) Reset() {
	for _, h := range e.heap {
		e.release(h.idx)
	}
	clear(e.ops)
	*e = Engine{slots: e.slots[:0], free: e.free[:0], heap: e.heap[:0], ops: e.ops[:0]}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Executed returns the number of events fired so far (useful in benchmarks).
func (e *Engine) Executed() uint64 { return e.executed }

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return len(e.heap) }

// RegisterOp registers an event handler on the engine and returns its op
// code. Registration is meant to happen once per handler at construction
// time (a server registers its callback family when it is built); the
// returned Op is then scheduled with AtOp/AfterOp without any per-event
// allocation. Ops cannot be unregistered.
func (e *Engine) RegisterOp(fn OpFunc) Op {
	if fn == nil {
		panic("sim: RegisterOp with nil handler")
	}
	e.ops = append(e.ops, fn)
	return Op(len(e.ops))
}

// At schedules fn at absolute virtual time t: it is AtOp on the engine's
// call op, registered on first use, with fn as the payload. Time handling is
// AtOp's. Scheduling allocates nothing beyond what building fn did.
func (e *Engine) At(t Time, fn func()) Event {
	if e.callOp == 0 {
		e.callOp = e.RegisterOp(func(p Payload) { p.A.(func())() })
	}
	return e.AtOp(t, e.callOp, Payload{A: fn})
}

// AtOp schedules a registered op at absolute virtual time t with the given
// payload. A time before now clamps to now, so the event fires after those
// already queued for now and the clock never moves backwards; a NaN or
// infinite time panics. Scheduling an op event performs no heap allocation.
func (e *Engine) AtOp(t Time, op Op, p Payload) Event {
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("sim: scheduling an event at invalid time %v", t))
	}
	e.checkOp(op)
	if t < e.now {
		t = e.now
	}
	return e.push(t, op, p)
}

// AfterOp schedules a registered op d seconds from now with the given
// payload. Negative delays clamp to 0. A NaN or infinite delay panics, and
// so does a finite one that puts the event past the largest finite time, as
// AtOp panics on it. Scheduling an op event performs no heap allocation.
func (e *Engine) AfterOp(d float64, op Op, p Payload) Event {
	if math.IsNaN(d) || math.IsInf(d, 0) {
		panic(fmt.Sprintf("sim: scheduling an event with invalid delay %v", d))
	}
	return e.AtOp(e.now+max(d, 0), op, p)
}

// checkOp validates an op code against the registration table.
func (e *Engine) checkOp(op Op) {
	if op <= 0 || int(op) > len(e.ops) {
		panic(fmt.Sprintf("sim: scheduling unregistered op %d", op))
	}
}

// push allocates a slot (reusing the freelist) and inserts it in the heap.
func (e *Engine) push(t Time, op Op, p Payload) Event {
	e.seq++
	var idx int32
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
	} else if idx = int32(len(e.slots)); len(e.slots) < cap(e.slots) {
		e.slots = e.slots[:idx+1]
	} else {
		e.slots = append(e.slots, slot{})
	}
	s := &e.slots[idx]
	s.op = op
	s.pay = p
	s.heapIdx = int32(len(e.heap))
	e.heap = append(e.heap, entry{at: t, seq: e.seq, idx: idx})
	e.siftUp(len(e.heap) - 1)
	return Event{eng: e, at: t, idx: idx, gen: s.gen}
}

// Cancel removes a pending event. Cancelling a fired, already-cancelled or
// zero-value event is a no-op; so is cancelling through a stale handle whose
// slot has been recycled for a newer event.
func (e *Engine) Cancel(ev Event) {
	if ev.eng != e || e == nil || int(ev.idx) >= len(e.slots) {
		return
	}
	s := &e.slots[ev.idx]
	if s.gen != ev.gen || s.heapIdx < 0 {
		return
	}
	e.heapRemove(int(s.heapIdx))
	e.release(ev.idx)
}

// release recycles a slot: the generation bump invalidates old handles.
// Payload pointers are dropped so the arena does not retain dead objects.
func (e *Engine) release(idx int32) {
	s := &e.slots[idx]
	s.op = 0
	s.pay = Payload{}
	s.heapIdx = -1
	s.gen++
	e.free = append(e.free, idx)
}

// Step fires the earliest event and advances the clock to it. It returns
// false when the queue is empty.
func (e *Engine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	top := e.heap[0]
	n := len(e.heap) - 1
	last := e.heap[n]
	e.heap = e.heap[:n]
	if n > 0 {
		// Bottom-up pop: the hole at the root follows the smaller child to
		// a leaf, one comparison a level, and the last entry rises from there.
		h, i := e.heap, 0
		for c := 1; c < n; c = 2*i + 1 {
			if c+1 < n && h[c+1].before(h[c]) {
				c++
			}
			e.place(i, h[c])
			i = c
		}
		h[i] = last
		e.siftUp(i)
	}
	idx := top.idx
	s := &e.slots[idx]
	e.now = top.at
	op := s.op
	pay := s.pay
	// Recycle before invoking: the callback may immediately schedule into
	// this slot; the generation bump keeps handles to the fired event
	// invalid, and the op/payload copies above survive the reuse.
	e.release(idx)
	e.executed++
	e.ops[op-1](pay)
	return true
}

// Run fires events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil fires events with time ≤ t, then sets the clock to t. Events
// scheduled exactly at t do fire.
func (e *Engine) RunUntil(t Time) {
	for len(e.heap) > 0 && e.heap[0].at <= t {
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}

// RunBefore fires events with time strictly < t, then sets the clock to t.
// Events scheduled exactly at t do NOT fire — they belong to the next
// window. The sharded kernel uses it to execute one barrier window
// [now, t): after RunBefore every shard clock sits exactly on the barrier,
// so cross-shard effects injected at the barrier are never in a shard's
// past.
func (e *Engine) RunBefore(t Time) {
	for len(e.heap) > 0 && e.heap[0].at < t {
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}

// NextEventTime returns the time of the earliest pending event, or
// (0, false) when the queue is empty.
func (e *Engine) NextEventTime() (Time, bool) {
	if len(e.heap) == 0 {
		return 0, false
	}
	return e.heap[0].at, true
}

// RunWhile fires events while cond() holds and the queue is non-empty.
func (e *Engine) RunWhile(cond func() bool) {
	for cond() && e.Step() {
	}
}

// place puts x at heap position i and records the position in its slot.
func (e *Engine) place(i int, x entry) {
	e.heap[i] = x
	e.slots[x.idx].heapIdx = int32(i)
}

// siftUp moves the entry at i up to its place, shifting the parents it
// passes down into the hole.
func (e *Engine) siftUp(i int) {
	h := e.heap
	x := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !x.before(h[parent]) {
			break
		}
		e.place(i, h[parent])
		i = parent
	}
	e.place(i, x)
}

// siftDown moves the entry at i down to its place, shifting the children it
// passes up into the hole.
func (e *Engine) siftDown(i int) {
	h := e.heap
	n := len(h)
	x := h[i]
	for c := 2*i + 1; c < n; c = 2*i + 1 {
		if c+1 < n && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(x) {
			break
		}
		e.place(i, h[c])
		i = c
	}
	e.place(i, x)
}

// heapRemove deletes the heap entry at position i.
func (e *Engine) heapRemove(i int) {
	n := len(e.heap) - 1
	last := e.heap[n]
	e.heap = e.heap[:n]
	if i < n {
		e.heap[i] = last
		e.siftDown(i)
		e.siftUp(i)
	}
}

// Ticker invokes a callback at a fixed period until stopped. The callback
// may stop the ticker from within itself.
type Ticker struct {
	engine *Engine
	period float64
	fn     func(Time)
	ev     Event
	done   bool
}

// NewTicker starts a periodic callback; the first tick fires one period from
// now. Period must be positive. Rearming rides the op-code event path, so a
// long-running ticker allocates once at creation and never per tick.
func (e *Engine) NewTicker(period float64, fn func(Time)) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	if e.tickerOp == 0 {
		e.tickerOp = e.RegisterOp(func(p Payload) { p.A.(*Ticker).fire() })
	}
	t := &Ticker{engine: e, period: period, fn: fn}
	t.schedule()
	return t
}

// fire runs one tick and rearms unless the callback stopped the ticker.
func (t *Ticker) fire() {
	if t.done {
		return
	}
	t.fn(t.engine.Now())
	if !t.done {
		t.schedule()
	}
}

func (t *Ticker) schedule() {
	t.ev = t.engine.AfterOp(t.period, t.engine.tickerOp, Payload{A: t})
}

// Stop halts the ticker; idempotent.
func (t *Ticker) Stop() {
	if t.done {
		return
	}
	t.done = true
	t.engine.Cancel(t.ev)
}
