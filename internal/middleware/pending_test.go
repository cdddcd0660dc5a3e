package middleware

import (
	"math/rand"
	"testing"
)

// pendingItem is a unit of pending work as the servers model it: the queue
// reads its flag, the server (here, the test) writes it.
type pendingItem struct {
	id, batch int
	queued    bool
}

func (it *pendingItem) Queued() bool { return it.queued }

// listed counts the entries a batch's view holds from its head on.
func (q *Pending[T]) listed(batch int) int {
	if batch >= len(q.views) {
		return 0
	}
	v := q.views[batch]
	return len(v.entries) - v.head
}

// scanBatch is the reference FirstIn is held to: the scan over the whole
// queue, its filter confined to one batch — what the servers ran for a
// dedicated worker before the per-batch view.
func scanBatch(q *Pending[*pendingItem], batch int, match func(*pendingItem) bool) *pendingItem {
	return q.First(func(it *pendingItem) bool { return it.batch == batch && match(it) })
}

// The lazy-removal quirk, step by step: work handed out from mid-queue and
// queued again is matched at its old slot, ahead of work pushed before the
// re-queue, until the head passes that slot.
func TestPendingViewStaleSlot(t *testing.T) {
	var q Pending[*pendingItem]
	push := func(it *pendingItem) {
		it.queued = true
		q.Push(it, it.batch)
	}
	anyItem := func(*pendingItem) bool { return true }
	check := func(step string, batch int, want *pendingItem) {
		t.Helper()
		if got := scanBatch(&q, batch, anyItem); got != want {
			t.Fatalf("%s: the scan finds %+v, want %+v", step, got, want)
		}
		if got := q.FirstIn(batch, anyItem); got != want {
			t.Fatalf("%s: the view finds %+v, want %+v", step, got, want)
		}
	}
	a, b, c := &pendingItem{id: 0, batch: 1}, &pendingItem{id: 1, batch: 2}, &pendingItem{id: 2, batch: 2}
	push(a)
	push(b)
	push(c)
	check("fresh", 2, b)

	b.queued = false // handed out from mid-queue: the head is stuck on a
	check("b handed out", 2, c)
	push(b) // queued again: now at slots 1 and 3
	check("b queued again", 2, b)
	if got := q.listed(2); got != 3 {
		t.Fatalf("batch 2's view holds %d entries, want b's stale one, c and b", got)
	}

	b.queued = false
	a.queued = false // the head passes a and b's stale slot, stops at c
	check("head at c", 2, c)
	if got := q.listed(2); got != 2 {
		t.Fatalf("batch 2's view holds %d entries once the head passed b's stale slot, want 2", got)
	}
	push(b)
	check("b behind c", 2, c)
	check("batch 1 drained", 1, nil)
	check("batch 0 never pushed", 0, nil)
}

// Random pushes, hand-outs from anywhere in the queue, re-queues and head
// takes over many batches: after every operation, every batch's view answers
// as the whole-queue scan does, under a filter that refuses some items as
// BOINC's one-result-per-worker rule does.
func TestPendingViewMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const batches = 50
		var q Pending[*pendingItem]
		var items []*pendingItem
		// slot is the sequence number of an item's latest entry, so the test
		// knows when a re-queue leaves a stale entry ahead of the head.
		slot := map[*pendingItem]int{}
		pushed, staleRequeues := 0, 0
		push := func(it *pendingItem) {
			it.queued = true
			slot[it] = pushed
			pushed++
			q.Push(it, it.batch)
		}
		for op := 0; op < 4000; op++ {
			switch r := rng.Intn(10); {
			case r < 4:
				it := &pendingItem{id: len(items), batch: rng.Intn(batches)}
				items = append(items, it)
				push(it)
			case r < 6 && len(items) > 0: // hand out from anywhere
				items[rng.Intn(len(items))].queued = false
			case r < 8 && len(items) > 0: // queue again what was handed out
				if it := items[rng.Intn(len(items))]; !it.queued {
					if q.Empty(); slot[it] >= q.compacted+q.head {
						staleRequeues++
					}
					push(it)
				}
			default: // a free worker takes the head
				if it := q.First(func(*pendingItem) bool { return true }); it != nil {
					it.queued = false
				}
			}
			refuse := rng.Intn(3)
			match := func(it *pendingItem) bool { return it.id%3 != refuse }
			for b := 0; b < batches; b++ {
				want := scanBatch(&q, b, match)
				if got := q.FirstIn(b, match); got != want {
					t.Fatalf("seed %d op %d batch %d: the view finds %+v, the scan %+v", seed, op, b, got, want)
				}
			}
		}
		if q.compacted == 0 {
			t.Errorf("seed %d: the queue never compacted", seed)
		}
		if staleRequeues == 0 {
			t.Errorf("seed %d: no item was queued again ahead of the head", seed)
		}
		listed := 0
		for b := 0; b < batches; b++ {
			listed += q.listed(b)
		}
		if live := len(q.items) - q.head; listed != live {
			t.Errorf("seed %d: the views list %d entries, the queue holds %d past its head", seed, listed, live)
		}
	}
}
