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
// specialized binary heap of arena indices (no interface boxing), and the
// Event handles returned to callers are small values carrying a generation
// counter, so a handle to a fired-and-recycled slot can never cancel the
// slot's next occupant.
//
// Events come in two flavors. Closure events (At) carry a func() —
// convenient, but every capture allocates. Op-code events (AtOp/AfterOp)
// carry a registered handler index plus an inline Payload stored in the
// arena slot itself, so scheduling allocates nothing and the event is a
// plain value relocatable across queues; the simulation hot paths (worker
// churn, task completions, deadlines, ticker rearms) all use them.
package sim

import (
	"errors"
	"fmt"
	"math"
	"sync"
)

// Time is virtual time in seconds since the start of the simulation.
type Time = float64

// ErrInvalidTime reports scheduling at NaN or ±Inf.
var ErrInvalidTime = errors.New("sim: invalid event time")

// ErrPastTime reports scheduling before the current virtual time. The event
// is still created, clamped to fire at the current time (in FIFO order after
// events already scheduled for it), so simulations never observe a clock
// moving backwards or events firing out of order.
var ErrPastTime = errors.New("sim: event time before current virtual time")

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
// The zero Op is "no op" (a closure event). Ops are engine-local: an Op
// registered on one engine must not be scheduled on another.
type Op int32

// Payload is the inline argument block of an op-code event, stored directly
// in the event's arena slot. A and B hold receiver/argument pointers —
// storing a pointer in an interface does not allocate — I carries a small
// integer (an index, a count) and X a float (a base time, a duration), so
// the typical simulation callback schedules with zero heap allocations.
type Payload struct {
	// A and B are pointer-shaped arguments (e.g. a worker and a task).
	A, B any
	// I is an inline integer argument (e.g. a trace-interval index).
	I int32
	// X is an inline float argument (e.g. a schedule base time).
	X float64
}

// OpFunc is a registered event handler: it receives the payload the event
// was scheduled with. Handlers run on the engine's event loop exactly like
// closure callbacks.
type OpFunc func(p Payload)

// slot is one arena cell. A slot is live while heapIdx >= 0; firing or
// cancelling bumps gen and returns the slot to the freelist, invalidating
// every outstanding handle to the previous occupant. An event is either a
// closure (fn, op == 0) or an op-code event (op > 0, payload inline).
type slot struct {
	at      Time
	seq     uint64
	fn      func()
	pay     Payload
	heapIdx int32
	gen     uint32
	op      Op
}

// Engine is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use; simulations are deterministic single-goroutine programs.
type Engine struct {
	now      Time
	seq      uint64
	executed uint64

	slots []slot
	free  []int32
	heap  []int32 // arena indices ordered by (at, seq)

	// ops is the registered op-handler table; Op n indexes ops[n-1].
	ops []OpFunc
	// tickerOp is the lazily-registered rearm handler shared by all Tickers.
	tickerOp Op
}

// enginePool holds released engines. A campaign runs thousands of cells one
// after another on each worker, and every cell grew its event arena — slots
// full of pointers — from nothing and left it to the collector.
var enginePool = sync.Pool{New: func() any { return new(Engine) }}

// NewEngine returns an engine with the clock at zero, no event pending and
// no handler registered. It may reuse the arena of a released engine.
func NewEngine() *Engine { return enginePool.Get().(*Engine) }

// Release returns the engine, emptied, for a later NewEngine to reuse; the
// caller must not use it afterwards.
func (e *Engine) Release() {
	e.reset()
	enginePool.Put(e)
}

// reset empties the engine: pending events are dropped unfired and every
// payload and handler pointer is cleared. The arena keeps its slots and
// their generation counters, so an Event handle from before the reset reports
// not pending whatever is scheduled next.
func (e *Engine) reset() {
	e.free = e.free[:0]
	for i := len(e.slots) - 1; i >= 0; i-- {
		s := &e.slots[i]
		if s.heapIdx >= 0 {
			s.gen++
		}
		s.fn, s.pay, s.op, s.heapIdx = nil, Payload{}, 0, -1
		e.free = append(e.free, int32(i)) // slot 0 is handed out first, as on a new engine
	}
	clear(e.ops)
	*e = Engine{slots: e.slots, free: e.free, heap: e.heap[:0], ops: e.ops[:0]}
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

// ScheduleAt schedules fn at absolute virtual time t, validating the time.
// NaN/±Inf returns ErrInvalidTime and no event. A time before the current
// virtual time returns ErrPastTime together with a valid event clamped to
// fire at the current time — callers that treat past scheduling as a bug can
// check the error; callers that expect clamping may ignore it.
func (e *Engine) ScheduleAt(t Time, fn func()) (Event, error) {
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return Event{}, fmt.Errorf("%w: %v", ErrInvalidTime, t)
	}
	var err error
	if t < e.now {
		err = fmt.Errorf("%w: %.6g before now %.6g", ErrPastTime, t, e.now)
		t = e.now
	}
	return e.push(t, fn, 0, Payload{}), err
}

// At schedules fn at absolute virtual time t. Times in the past are clamped
// to the current virtual time; invalid times panic.
func (e *Engine) At(t Time, fn func()) Event {
	ev, err := e.ScheduleAt(t, fn)
	if err != nil && errors.Is(err, ErrInvalidTime) {
		panic(err.Error())
	}
	return ev
}

// AtOp schedules a registered op at absolute virtual time t with the given
// payload. Time handling matches At: past times clamp to now, invalid times
// panic. Scheduling an op event performs no heap allocation.
func (e *Engine) AtOp(t Time, op Op, p Payload) Event {
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("sim: scheduling op event at invalid time %v", t))
	}
	e.checkOp(op)
	if t < e.now {
		t = e.now
	}
	return e.push(t, nil, op, p)
}

// AfterOp schedules a registered op d seconds from now with the given
// payload. Negative delays clamp to 0, NaN and infinite delays panic. Scheduling an op event performs no heap allocation.
func (e *Engine) AfterOp(d float64, op Op, p Payload) Event {
	if math.IsNaN(d) || math.IsInf(d, 0) {
		panic(fmt.Sprintf("sim: scheduling op event with invalid delay %v", d))
	}
	e.checkOp(op)
	if d < 0 {
		d = 0
	}
	return e.push(e.now+d, nil, op, p)
}

// checkOp validates an op code against the registration table.
func (e *Engine) checkOp(op Op) {
	if op <= 0 || int(op) > len(e.ops) {
		panic(fmt.Sprintf("sim: scheduling unregistered op %d", op))
	}
}

// push allocates a slot (reusing the freelist) and inserts it in the heap.
func (e *Engine) push(t Time, fn func(), op Op, p Payload) Event {
	e.seq++
	var idx int32
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		idx = int32(len(e.slots))
		e.slots = append(e.slots, slot{})
	}
	s := &e.slots[idx]
	s.at = t
	s.seq = e.seq
	s.fn = fn
	s.op = op
	s.pay = p
	s.heapIdx = int32(len(e.heap))
	e.heap = append(e.heap, idx)
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
	s.fn = nil
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
	idx := e.heap[0]
	n := len(e.heap) - 1
	if n > 0 {
		e.heap[0] = e.heap[n]
		e.slots[e.heap[0]].heapIdx = 0
	}
	e.heap = e.heap[:n]
	if n > 1 {
		e.siftDown(0)
	}
	s := &e.slots[idx]
	e.now = s.at
	fn := s.fn
	op := s.op
	pay := s.pay
	// Recycle before invoking: the callback may immediately schedule into
	// this slot; the generation bump keeps handles to the fired event
	// invalid, and the op/payload copies above survive the reuse.
	e.release(idx)
	e.executed++
	if op > 0 {
		e.ops[op-1](pay)
	} else {
		fn()
	}
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
	for len(e.heap) > 0 && e.slots[e.heap[0]].at <= t {
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
	for len(e.heap) > 0 && e.slots[e.heap[0]].at < t {
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
	return e.slots[e.heap[0]].at, true
}

// RunWhile fires events while cond() holds and the queue is non-empty.
func (e *Engine) RunWhile(cond func() bool) {
	for cond() && e.Step() {
	}
}

// less orders heap entries by (time, scheduling sequence): same-instant
// events fire in FIFO order, which the determinism guarantees rely on.
func (e *Engine) less(a, b int32) bool {
	sa, sb := &e.slots[a], &e.slots[b]
	if sa.at != sb.at {
		return sa.at < sb.at
	}
	return sa.seq < sb.seq
}

func (e *Engine) siftUp(i int) {
	h := e.heap
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		e.slots[h[i]].heapIdx = int32(i)
		e.slots[h[parent]].heapIdx = int32(parent)
		i = parent
	}
}

func (e *Engine) siftDown(i int) {
	h := e.heap
	n := len(h)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && e.less(h[right], h[left]) {
			least = right
		}
		if !e.less(h[least], h[i]) {
			return
		}
		h[i], h[least] = h[least], h[i]
		e.slots[h[i]].heapIdx = int32(i)
		e.slots[h[least]].heapIdx = int32(least)
		i = least
	}
}

// heapRemove deletes the heap entry at position i.
func (e *Engine) heapRemove(i int) {
	n := len(e.heap) - 1
	if i != n {
		moved := e.heap[n]
		e.heap[i] = moved
		e.slots[moved].heapIdx = int32(i)
	}
	e.heap = e.heap[:n]
	if i < n {
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
