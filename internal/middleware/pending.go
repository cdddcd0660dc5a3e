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
// Every entry is also listed in its batch's view, so a worker dedicated to one
// batch is answered from that batch's entries alone. A batch is named by its
// number on the server (BatchState.Num).
//
// Every slice the queue holds is zero past its length, so Reset empties it in
// time proportional to what the last cell used and keeps the capacity.
type Pending[T Queueable] struct {
	items []T
	head  int
	// compacted counts the entries compaction has removed from the front of
	// items: items[i] has sequence number compacted+i.
	compacted int
	// views lists each batch's entries, by batch number.
	views []pendingView[T]
}

// pendingView lists one batch's entries of the queue, in queue order, from
// head on: the entries before it are the ones the queue's head has passed.
type pendingView[T Queueable] struct {
	entries []viewEntry[T]
	head    int
}

type viewEntry[T Queueable] struct {
	seq  int
	item T
}

// Push appends an entry to the queue and to its batch's view.
func (q *Pending[T]) Push(item T, batch int) {
	if batch >= len(q.views) {
		q.views = append(q.views, make([]pendingView[T], batch+1-len(q.views))...)
	}
	v := &q.views[batch]
	v.entries = append(v.entries, viewEntry[T]{q.compacted + len(q.items), item})
	q.items = append(q.items, item)
}

// compact moves s[head:] to the front of s in place and clears the vacated
// tail, so the backing array is reused and retains nothing it no longer lists.
// It does so once more than half of s, and more than 64 entries, lie before
// head: every entry is moved O(1) times.
func compact[E any](s []E, head int) ([]E, int) {
	if head <= 64 || head*2 <= len(s) {
		return s, head
	}
	n := copy(s, s[head:])
	clear(s[n:])
	return s[:n], 0
}

// advance skips dead entries at the head and compacts.
func (q *Pending[T]) advance() {
	var none T
	for q.head < len(q.items) && !q.items[q.head].Queued() {
		q.items[q.head] = none
		q.head++
	}
	head := q.head
	if q.items, q.head = compact(q.items, q.head); q.head != head {
		q.compacted += head
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
// the batch, at a cost that does not depend on the other batches' entries.
// View entries the head has passed are dropped on the way.
func (q *Pending[T]) FirstIn(batch int, match func(T) bool) T {
	var none T
	if batch >= len(q.views) {
		return none
	}
	q.advance()
	head := q.compacted + q.head
	v := &q.views[batch]
	for v.head < len(v.entries) && v.entries[v.head].seq < head {
		v.entries[v.head] = viewEntry[T]{}
		v.head++
	}
	v.entries, v.head = compact(v.entries, v.head)
	for _, e := range v.entries[v.head:] {
		if e.item.Queued() && match(e.item) {
			return e.item
		}
	}
	return none
}

// Reset empties the queue and every view, keeping their capacity.
func (q *Pending[T]) Reset() {
	clear(q.items)
	for i := range q.views {
		v := &q.views[i]
		clear(v.entries)
		v.entries, v.head = v.entries[:0], 0
	}
	*q = Pending[T]{items: q.items[:0], views: q.views}
}
