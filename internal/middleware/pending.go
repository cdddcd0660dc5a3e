package middleware

// Queueable is what a Pending queue holds: a server's unit of pending work (a
// BOINC workunit, an XWHEP task), which owns the flag saying whether it still
// waits for a worker.
type Queueable interface {
	// Queued reports whether the entry waits for a worker. The server clears
	// the flag when the work is handed out or completed, and may set it again
	// while an earlier entry for the same work is still in the queue.
	Queued() bool
}

// Pending is a server's global FIFO of pending work with lazy removal: an
// entry whose work was handed out or completed keeps its slot and is skipped,
// so taking from the head is O(1). Such an entry is dropped only once the head
// passes it; until then, work that is queued again is matched at its old slot.
//
// Every entry is also listed in its batch's PendingView, so a worker dedicated
// to one batch is answered from that batch's entries alone.
type Pending[T Queueable] struct {
	items []T
	head  int
	// compacted counts the entries compaction has removed from the front of
	// items: items[i] has sequence number compacted+i.
	compacted int
}

// PendingView lists one batch's entries of a Pending queue, in queue order.
// The zero value is an empty view; a view belongs to one queue.
type PendingView[T Queueable] struct {
	entries []viewEntry[T]
}

type viewEntry[T Queueable] struct {
	seq  int
	item T
}

// Push appends an entry to the queue and to its batch's view.
func (q *Pending[T]) Push(item T, v *PendingView[T]) {
	v.entries = append(v.entries, viewEntry[T]{q.compacted + len(q.items), item})
	q.items = append(q.items, item)
}

// advance skips dead entries at the head and compacts when more than half
// the backing slice is consumed.
func (q *Pending[T]) advance() {
	var none T
	for q.head < len(q.items) && !q.items[q.head].Queued() {
		q.items[q.head] = none
		q.head++
	}
	if q.head > 64 && q.head*2 > len(q.items) {
		q.items = append(q.items[:0], q.items[q.head:]...)
		q.compacted += q.head
		q.head = 0
	}
}

// Empty reports whether no queued entries remain (after head advance;
// mid-queue lazily-removed entries may linger but First skips them).
func (q *Pending[T]) Empty() bool {
	q.advance()
	return q.head >= len(q.items)
}

// First returns the first queued entry matching the filter, or the zero T:
// the scan over every batch's entries that a worker free to take any work
// needs.
func (q *Pending[T]) First(match func(T) bool) T {
	q.advance()
	for _, item := range q.items[q.head:] {
		if item.Queued() && match(item) {
			return item
		}
	}
	var none T
	return none
}

// FirstIn returns what First would with a filter that also confines it to
// the view's batch, at a cost that does not depend on the other batches'
// entries. View entries the head has passed are dropped on the way.
func (q *Pending[T]) FirstIn(v *PendingView[T], match func(T) bool) T {
	q.advance()
	head := q.compacted + q.head
	passed := 0
	for passed < len(v.entries) && v.entries[passed].seq < head {
		passed++
	}
	v.entries = v.entries[passed:]
	for _, e := range v.entries {
		if e.item.Queued() && match(e.item) {
			return e.item
		}
	}
	var none T
	return none
}
