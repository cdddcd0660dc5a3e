package middleware

import (
	"math/rand"
	"testing"
)

// idleSet is a workerTable that keeps no state of its own per worker: the
// bare idle set.
type idleSet = workerTable[struct{}]

// cloudRecount counts idle cloud workers by scanning the membership — the
// ground truth CloudCount must track.
func cloudRecount(s *idleSet) int {
	n := 0
	for _, w := range s.idle {
		if w.Cloud {
			n++
		}
	}
	return n
}

// Regression: a worker whose Cloud flag differs between Add and Remove must
// not drift the counter. Before the fix, Remove read the live flag: an
// add-as-node/remove-as-cloud pair drove the counter negative and corrupted
// the accounting for every other worker.
func TestIdleSetCloudFlagFlipBetweenAddAndRemove(t *testing.T) {
	s := &idleSet{}
	w := &Worker{ID: 1, Power: 1}

	s.Add(w) // recorded as non-cloud
	w.Cloud = true
	s.Remove(w)
	if s.CloudCount() != 0 {
		t.Fatalf("CloudCount = %d after node-in/cloud-out, want 0", s.CloudCount())
	}

	s.Add(w) // recorded as cloud
	if s.CloudCount() != 1 {
		t.Fatalf("CloudCount = %d with one idle cloud worker, want 1", s.CloudCount())
	}
	w.Cloud = false
	s.Remove(w)
	if s.CloudCount() != 0 {
		t.Fatalf("CloudCount = %d after cloud-in/node-out, want 0", s.CloudCount())
	}

	// The drift of one worker must not poison another's accounting.
	c := &Worker{ID: 2, Power: 1, Cloud: true}
	s.Add(c)
	if s.CloudCount() != 1 || cloudRecount(s) != 1 {
		t.Fatalf("CloudCount = %d (recount %d) after unrelated churn, want 1",
			s.CloudCount(), cloudRecount(s))
	}
}

// Property: under random Add/Remove/flip sequences, CloudCount always
// equals the number of idle cloud workers. Flips happen while a worker is
// out of the set — in the simulators a worker's Cloud identity never
// changes while it is idle (it is fixed at construction); the historical
// drift came exactly from flags changing between membership spells.
func TestIdleSetCloudCountProperty(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		s := &idleSet{}
		workers := make([]*Worker, 30)
		for i := range workers {
			workers[i] = &Worker{ID: i, Power: 1, Cloud: r.Intn(2) == 0}
		}
		for op := 0; op < 2000; op++ {
			w := workers[r.Intn(len(workers))]
			switch r.Intn(3) {
			case 0:
				s.Add(w)
			case 1:
				s.Remove(w)
			default:
				if !s.Contains(w) {
					w.Cloud = !w.Cloud
				}
			}
			if got, want := s.CloudCount(), cloudRecount(s); got != want {
				t.Fatalf("seed %d op %d: CloudCount = %d, idle cloud workers = %d",
					seed, op, got, want)
			}
			if s.CloudCount() < 0 || s.CloudCount() > s.Len() {
				t.Fatalf("seed %d op %d: CloudCount %d outside [0,%d]", seed, op, s.CloudCount(), s.Len())
			}
		}
		// Drain and confirm the counter lands exactly at zero.
		for _, w := range workers {
			s.Remove(w)
		}
		if s.CloudCount() != 0 || s.Len() != 0 {
			t.Fatalf("seed %d: drained set has CloudCount=%d Len=%d", seed, s.CloudCount(), s.Len())
		}
	}
}

// Even with flips at arbitrary instants (including mid-membership), the
// counter must follow the membership records: never negative, never above
// Len, and exact again once flips quiesce at Remove/Add boundaries.
func TestIdleSetCloudCountNeverDriftsUnderArbitraryFlips(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	s := &idleSet{}
	workers := make([]*Worker, 10)
	for i := range workers {
		workers[i] = &Worker{ID: i, Power: 1}
	}
	for op := 0; op < 5000; op++ {
		w := workers[r.Intn(len(workers))]
		switch r.Intn(3) {
		case 0:
			s.Add(w)
		case 1:
			s.Remove(w)
		default:
			w.Cloud = !w.Cloud // anywhere, even while idle
		}
		if s.CloudCount() < 0 || s.CloudCount() > s.Len() {
			t.Fatalf("op %d: CloudCount %d outside [0,%d]", op, s.CloudCount(), s.Len())
		}
	}
	for _, w := range workers {
		s.Remove(w)
	}
	if s.CloudCount() != 0 {
		t.Fatalf("CloudCount = %d after removing every worker, want 0", s.CloudCount())
	}
}

// TestIdleSetTwoConsumersNeverShareAWorker is the idle-set-level property
// behind the dispatch invariant: two consumers draining one set can never
// receive the same worker, because Pick removes before returning.
func TestIdleSetTwoConsumersNeverShareAWorker(t *testing.T) {
	s := &idleSet{}
	workers := make([]*Worker, 64)
	for i := range workers {
		workers[i] = &Worker{ID: i, Cloud: i%3 == 0}
		s.Add(workers[i])
	}
	held := map[*Worker]string{}
	consumers := []struct {
		name  string
		match func(*Worker) bool
	}{
		{"cloud", func(w *Worker) bool { return w.Cloud }},
		{"any", func(*Worker) bool { return true }},
	}
	// Interleave the two consumers; every pick must yield a worker no one
	// currently holds. Periodically release workers back.
	released := 0
	for round := 0; round < 200; round++ {
		c := consumers[round%2]
		w := s.Pick(c.match)
		if w == nil {
			// Refill from the held set (simulates task completion).
			for rw := range held {
				delete(held, rw)
				s.Add(rw)
				released++
				break
			}
			continue
		}
		if owner, taken := held[w]; taken {
			t.Fatalf("round %d: %s picked worker %d already held by %s", round, c.name, w.ID, owner)
		}
		held[w] = c.name
		if round%7 == 0 {
			// Release one early, as a completing task would.
			delete(held, w)
			s.Add(w)
		}
	}
	if released == 0 {
		t.Fatal("property test never cycled workers through the set")
	}
}
