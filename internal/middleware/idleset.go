package middleware

import "fmt"

// workerTable is a server's table of the workers it has seen, and its idle
// set. It numbers the workers densely from 0 in the order it first sees them
// and keeps the number on the Worker — which therefore belongs to this one
// table — so a worker's record is a slice index away, however sparse the
// worker IDs are (a trace partition, the reserved cloud range). The record
// holds the server's own state S of the worker and the worker's place in the
// idle set.
//
// The idle set has O(1) add/remove (swap removal), which matters under
// trace-driven churn where thousands of idle workers join and leave per
// simulated hour. It counts idle cloud workers from its own membership state:
// a worker's Cloud flag is recorded when it is added and that recorded flag —
// not the flag at removal time — drives the counter. A caller mutating w.Cloud
// between Add and Remove (historically possible through test drivers and mock
// servers) therefore cannot drift CloudCount; in the simulators cloud-ness is
// a construction-time identity and never changes while a worker is idle.
type workerTable[S any] struct {
	slots []workerSlot[S]
	idle  []*Worker
	cloud int
}

// workerSlot is one worker's record in a workerTable.
type workerSlot[S any] struct {
	w *Worker
	// idle is 1 + the worker's index in the idle list, 0 while it is not
	// idle; cloud is w.Cloud as it was when the worker was added.
	idle  int32
	cloud bool
	state S
}

// slot returns w's record, nil if the table never saw w.
func (t *workerTable[S]) slot(w *Worker) *workerSlot[S] {
	if w.table != any(t) {
		return nil
	}
	return &t.slots[w.slot]
}

// number returns w's record, numbering w if the table has not seen it. A
// worker belongs to one table: numbering a worker another one saw panics. The
// record is valid until the next worker is numbered.
func (t *workerTable[S]) number(w *Worker) *workerSlot[S] {
	if s := t.slot(w); s != nil {
		return s
	}
	if w.table != nil {
		panic(fmt.Sprintf("middleware: worker %d already belongs to another server", w.ID))
	}
	w.table, w.slot = t, int32(len(t.slots))
	t.slots = append(t.slots, workerSlot[S]{w: w})
	return &t.slots[w.slot]
}

// Len returns the number of idle workers.
func (t *workerTable[S]) Len() int { return len(t.idle) }

// CloudCount returns the number of idle cloud workers, derived from the
// membership records.
func (t *workerTable[S]) CloudCount() int { return t.cloud }

// Contains reports membership.
func (t *workerTable[S]) Contains(w *Worker) bool {
	s := t.slot(w)
	return s != nil && s.idle > 0
}

// Add inserts a worker; adding a member twice is a no-op.
func (t *workerTable[S]) Add(w *Worker) {
	s := t.number(w)
	if s.idle > 0 {
		return
	}
	t.idle = append(t.idle, w)
	s.idle, s.cloud = int32(len(t.idle)), w.Cloud
	if w.Cloud {
		t.cloud++
	}
}

// Remove deletes a worker, reporting whether it was present. The cloud
// counter is adjusted by the flag recorded at Add, so the counter stays
// consistent with the remaining membership even if w.Cloud changed while
// the worker was away from the set.
func (t *workerTable[S]) Remove(w *Worker) bool {
	s := t.slot(w)
	if s == nil || s.idle == 0 {
		return false
	}
	t.removeIdle(s)
	return true
}

// removeIdle takes an idle worker's record out of the idle list.
func (t *workerTable[S]) removeIdle(s *workerSlot[S]) {
	i, last := int(s.idle-1), len(t.idle)-1
	if i != last {
		moved := t.idle[last]
		t.idle[i] = moved
		t.slots[moved.slot].idle = int32(i + 1)
	}
	t.idle[last] = nil
	t.idle = t.idle[:last]
	s.idle = 0
	if s.cloud {
		t.cloud--
	}
}

// Pick returns the first worker (in arbitrary order) accepted by match and
// removes it. It returns nil when none matches.
func (t *workerTable[S]) Pick(match func(*Worker) bool) *Worker {
	for i := len(t.idle) - 1; i >= 0; i-- {
		w := t.idle[i]
		if match(w) {
			t.removeIdle(&t.slots[w.slot])
			return w
		}
	}
	return nil
}
