package sim

import (
	"cmp"
	"math"
	"slices"
	"testing"
)

// refItem is one event of the reference queue: its key, its id in the
// script, and the ticker it rearms (-1 for a plain event).
type refItem struct {
	at     Time
	seq    uint64
	id     int
	ticker int
}

func (a refItem) cmp(b refItem) int {
	return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq))
}

// refEngine is the reference the engine is checked against: a plain slice
// kept sorted by (at, seq).
type refEngine struct {
	now  Time
	seq  uint64
	q    []refItem
	live map[int]bool
}

func (r *refEngine) push(at Time, id, ticker int) {
	r.seq++
	it := refItem{at: max(at, r.now), seq: r.seq, id: id, ticker: ticker}
	i, _ := slices.BinarySearchFunc(r.q, it, refItem.cmp)
	r.q = slices.Insert(r.q, i, it)
	r.live[id] = true
}

func (r *refEngine) remove(id int) {
	if !r.live[id] {
		return
	}
	delete(r.live, id)
	r.q = slices.DeleteFunc(r.q, func(it refItem) bool { return it.id == id })
}

func (r *refEngine) pop() refItem {
	it := r.q[0]
	r.q = r.q[1:]
	delete(r.live, it.id)
	r.now = it.at
	return it
}

// engineScript interprets data as a program of scheduling, cancelling,
// stepping, ticker and reset operations, runs it on an Engine and on a
// refEngine, and fails on the first difference in firing order, clock,
// queue length or a handle's Pending.
func engineScript(t *testing.T, data []byte) {
	e := NewEngine()
	ref := &refEngine{live: map[int]bool{}}
	var fired, want []int // ids of plain events; -1-k for a tick of ticker k
	var op Op
	register := func() { op = e.RegisterOp(func(p Payload) { fired = append(fired, int(p.I)) }) }
	register()

	type handle struct {
		ev Event
		id int
	}
	var handles []handle
	type refTicker struct {
		tk      *Ticker
		period  float64
		id      int // the id of its latest rearm in ref
		stopped bool
	}
	var tickers []*refTicker
	nextID := 0
	newID := func() int { nextID++; return nextID - 1 }

	// step pops one reference event, as Engine.Step fires it.
	step := func() {
		it := ref.pop()
		if it.ticker < 0 {
			want = append(want, it.id)
			return
		}
		rt := tickers[it.ticker]
		want = append(want, -1-it.ticker)
		rt.id = newID()
		ref.push(ref.now+rt.period, rt.id, it.ticker)
	}

	pos := 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		pos++
		return int(data[pos-1])
	}
	// at reads a time from 8 s before to 56 s after the clock, on a
	// quarter-second grid so that same-instant events are common.
	at := func() Time { return ref.now + Time(next()%256-32)/4 }

	for n := 0; pos < len(data) && n < 500; n++ {
		switch code := next() % 13; code {
		case 0, 1: // At, with a clamped past time when at() falls behind
			id := newID()
			tt := at()
			ev := e.At(tt, func() { fired = append(fired, id) })
			if ev.At() != max(tt, ref.now) {
				t.Fatalf("At(%v) at now %v scheduled at %v", tt, ref.now, ev.At())
			}
			handles = append(handles, handle{ev, id})
			ref.push(tt, id, -1)
		case 2, 3: // AtOp
			id := newID()
			tt := at()
			handles = append(handles, handle{e.AtOp(tt, op, Payload{I: int32(id)}), id})
			ref.push(tt, id, -1)
		case 4: // At, where NaN and ±Inf panic and queue nothing
			id := newID()
			b := next()
			tt := at()
			switch b % 8 {
			case 0:
				tt = math.NaN()
			case 1:
				tt = math.Inf(1 - 2*(b/8%2))
			}
			if !math.IsNaN(tt) && !math.IsInf(tt, 0) {
				handles = append(handles, handle{e.At(tt, func() { fired = append(fired, id) }), id})
				ref.push(tt, id, -1)
				break
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("At(%v) did not panic", tt)
					}
				}()
				e.At(tt, func() { fired = append(fired, id) })
			}()
		case 5, 6: // Cancel any handle: fired, cancelled, from before a reset
			if len(handles) > 0 {
				h := handles[next()%len(handles)]
				e.Cancel(h.ev)
				ref.remove(h.id)
			}
		case 7: // Step
			if got := e.Step(); got != (len(ref.q) > 0) {
				t.Fatalf("Step = %v with %d queued in the reference", got, len(ref.q))
			}
			if len(ref.q) > 0 {
				step()
			}
		case 8, 9: // RunUntil (8) or RunBefore (9)
			until := ref.now + Time(next()%64)/4
			for len(ref.q) > 0 && (ref.q[0].at < until || code == 8 && ref.q[0].at == until) {
				step()
			}
			ref.now = max(ref.now, until)
			if code == 8 {
				e.RunUntil(until)
			} else {
				e.RunBefore(until)
			}
		case 10: // start a ticker
			if len(tickers) < 4 {
				k := len(tickers)
				rt := &refTicker{period: Time(next()%8+1) / 2, id: newID()}
				rt.tk = e.NewTicker(rt.period, func(Time) { fired = append(fired, -1-k) })
				tickers = append(tickers, rt)
				ref.push(ref.now+rt.period, rt.id, k)
			}
		case 11: // stop a ticker
			if len(tickers) > 0 {
				rt := tickers[next()%len(tickers)]
				rt.tk.Stop()
				rt.stopped = true
				ref.remove(rt.id)
			}
		case 12: // Reset mid-run: the engine is new, every handle is stale
			e.Reset()
			register()
			*ref = refEngine{live: map[int]bool{}}
			for _, rt := range tickers {
				rt.stopped = true
			}
		}

		if !slices.Equal(fired, want) {
			t.Fatalf("op %d: fired %v, want %v", n, fired, want)
		}
		if e.Now() != ref.now || e.Pending() != len(ref.q) {
			t.Fatalf("op %d: now %v pending %d, want now %v pending %d", n, e.Now(), e.Pending(), ref.now, len(ref.q))
		}
		if tt, ok := e.NextEventTime(); ok != (len(ref.q) > 0) || ok && tt != ref.q[0].at {
			t.Fatalf("op %d: NextEventTime = %v, %v; reference queue %v", n, tt, ok, ref.q)
		}
		for _, h := range handles {
			if h.ev.Pending() != ref.live[h.id] {
				t.Fatalf("op %d: event %d reports pending %v", n, h.id, h.ev.Pending())
			}
		}
		for k, rt := range tickers {
			if rt.tk.ev.Pending() != (!rt.stopped && ref.live[rt.id]) {
				t.Fatalf("op %d: ticker %d reports pending %v", n, k, rt.tk.ev.Pending())
			}
		}
	}
}

// FuzzEngineOrder checks the engine against a sorted slice on arbitrary
// mixes of scheduling, cancelling, stepping, tickers and resets. The seeds
// run under go test; go test -fuzz FuzzEngineOrder explores further.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0, 40, 2, 40, 1, 10, 3, 0, 7, 7, 7})
	f.Add([]byte{2, 50, 2, 50, 2, 50, 5, 1, 7, 5, 1, 5, 0, 7, 7})
	f.Add([]byte{10, 1, 10, 3, 0, 60, 8, 30, 11, 0, 9, 20, 7, 11, 1, 8, 63})
	f.Add([]byte{4, 8, 40, 4, 1, 10, 4, 2, 200, 7, 4, 3, 0, 7, 7})
	f.Add([]byte{0, 90, 2, 100, 10, 2, 8, 10, 12, 5, 0, 5, 1, 0, 33, 2, 33, 10, 0, 7, 8, 40, 12, 7})
	f.Add([]byte{
		2, 34, 2, 34, 0, 34, 3, 36, 1, 40, 2, 200, 0, 0, 10, 4, 8, 12,
		5, 2, 6, 4, 7, 9, 16, 2, 30, 0, 31, 11, 0, 8, 20, 12, 2, 36, 0, 36,
		5, 0, 5, 9, 7, 10, 1, 9, 40, 11, 0, 4, 0, 60, 8, 63, 12, 8, 5,
	})
	// A cancellation whose replacement entry must rise, not sink.
	f.Add([]byte("17707X7X7X7X7C7Ab0Ab9A000"))
	// A deep heap: cancellations from its middle, a reset with most of it
	// queued, then more events than the arena held before.
	var deep []byte
	for i := 0; i < 64; i++ {
		deep = append(deep, byte(2+i%2), byte(32+i*37%200))
	}
	for i := 0; i < 24; i++ {
		deep = append(deep, 5, byte(i*11), 7)
	}
	deep = append(deep, 12)
	for i := 0; i < 80; i++ {
		deep = append(deep, 0, byte(i*53))
	}
	f.Add(append(deep, 8, 63, 8, 63, 8, 63, 8, 63))
	f.Fuzz(engineScript)
}
