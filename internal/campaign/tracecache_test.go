package campaign

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spequlos/internal/core"
	"spequlos/internal/trace"
)

// testTrace builds a small deterministic trace whose shape (and therefore
// Bytes) is a pure function of id, so regenerated traces must compare
// byte-identical to the originals.
func testTrace(id int) *trace.Trace {
	tr := &trace.Trace{Name: fmt.Sprintf("t%02d", id), Length: 1000}
	for n := 0; n <= id%3; n++ {
		node := &trace.Node{ID: n, Power: float64(1000 + id)}
		for i := 0; i < 4+id; i++ {
			start := float64(i*10 + id)
			node.Intervals = append(node.Intervals, trace.Interval{Start: start, End: start + 5})
		}
		tr.Nodes = append(tr.Nodes, node)
	}
	return tr
}

func testKey(id int) traceKey {
	return traceKey{name: fmt.Sprintf("t%02d", id), seed: uint64(id), horizon: 1000, pool: id}
}

// fixed returns a generator of testTrace(id) that never fails.
func fixed(id int) func() (*trace.Trace, error) {
	return func() (*trace.Trace, error) { return testTrace(id), nil }
}

// within fails the test unless wg finishes inside the deadline: a cache
// that spins or deadlocks fails here instead of hanging the suite.
func within(t *testing.T, what string, wg *sync.WaitGroup) {
	t.Helper()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// TestTraceBytesDeterministic pins the size estimate: a pure function of
// the trace shape, dominated by 16 bytes per interval.
func TestTraceBytesDeterministic(t *testing.T) {
	tr := testTrace(3)
	if got, want := tr.Bytes(), testTrace(3).Bytes(); got != want {
		t.Fatalf("Bytes not deterministic: %d vs %d", got, want)
	}
	intervals := 0
	for _, n := range tr.Nodes {
		intervals += len(n.Intervals)
	}
	min := int64(16 * intervals)
	if tr.Bytes() < min {
		t.Fatalf("Bytes() = %d, below the %d bytes its %d intervals alone occupy", tr.Bytes(), min, intervals)
	}
}

// TestTraceCachePinsInFlightEntry holds one generation in flight while
// eight other keys are admitted into a cache whose 1-byte budget flushes at
// every admission. The flush must leave the flight where it is: a caller that
// asks for the key after the churn shares the one generation and its
// pointer.
func TestTraceCachePinsInFlightEntry(t *testing.T) {
	c := newTraceCache(1)
	var gens atomic.Int32
	started := make(chan struct{})
	unblock := make(chan struct{})
	gen := func() (*trace.Trace, error) {
		if gens.Add(1) == 1 {
			close(started)
			<-unblock
		}
		return testTrace(0), nil
	}

	var wg sync.WaitGroup
	var got [2]*trace.Trace
	fetch := func(i int) {
		defer wg.Done()
		tr, err := c.get(testKey(0), gen)
		if err != nil {
			t.Error(err)
		}
		got[i] = tr
	}
	wg.Add(1)
	go fetch(0)
	<-started

	for id := 1; id <= 8; id++ {
		tr, err := c.get(testKey(id), fixed(id))
		if err != nil || !reflect.DeepEqual(tr, testTrace(id)) {
			t.Fatalf("key %d: %v, or not its generator's trace", id, err)
		}
	}
	if u := c.usage(); u.Entries != 1 || u.ResidentBytes != 0 {
		t.Fatalf("after the churn: %+v, want the one flight and nothing resident", u)
	}

	// The waiter asks after the churn. Widen the budget so that, should it
	// arrive only after the flight lands, it finds the result in the map.
	wg.Add(1)
	go fetch(1)
	c.mu.Lock()
	c.budget = DefaultTraceBudgetBytes
	c.mu.Unlock()
	close(unblock)
	within(t, "both callers of the in-flight key", &wg)

	if got[0] == nil || got[0] != got[1] {
		t.Fatalf("callers of one key got %p and %p: single flight broken", got[0], got[1])
	}
	if n := gens.Load(); n != 1 {
		t.Fatalf("the key was generated %d times, want 1", n)
	}
}

// TestTraceCacheFailureReentersSingleFlight fails one generation while 8
// waiters are queued on it. The failed flight leaves the map, the waiters
// re-enter get, one of them generates again, and all share that trace: two
// generations in all, and a later get hits.
func TestTraceCacheFailureReentersSingleFlight(t *testing.T) {
	const waiters = 8
	c := newTraceCache(1 << 20)
	var gens atomic.Int32
	failed := errors.New("injected one-shot failure")
	started := make(chan struct{})
	unblock := make(chan struct{})
	gen := func() (*trace.Trace, error) {
		if gens.Add(1) == 1 {
			close(started)
			<-unblock
			return nil, failed
		}
		return testTrace(0), nil
	}

	errCh := make(chan error, 1)
	go func() {
		_, err := c.get(testKey(0), gen)
		errCh <- err
	}()
	<-started

	var wg sync.WaitGroup
	got := make([]*trace.Trace, waiters)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr, err := c.get(testKey(0), gen)
			if err != nil {
				t.Error(err)
			}
			got[i] = tr
		}()
	}
	close(unblock)
	if err := <-errCh; !errors.Is(err, failed) {
		t.Fatalf("generator got %v, want the injected failure", err)
	}
	within(t, "the waiters of a failed flight", &wg)

	for i, tr := range got {
		if tr == nil || tr != got[0] {
			t.Fatalf("waiter %d got %p, waiter 0 %p: the retry bypassed single flight", i, tr, got[0])
		}
	}
	if n := gens.Load(); n != 2 {
		t.Fatalf("the key was generated %d times, want 2 (the failure and one retry)", n)
	}
	if tr, err := c.get(testKey(0), gen); err != nil || tr != got[0] || gens.Load() != 2 {
		t.Fatalf("a later get did not hit the retried trace (%v, %d generations)", err, gens.Load())
	}
}

// TestTraceCacheByteBudgetProperty hammers one cache from 8 goroutines with
// random gets over 10 traces of fixed size, under a budget of about three
// of them: every trace returned, flushed and regenerated or not, equals its
// generator's; no key ever has two generations in flight; and after every
// get the finished entries fit the budget.
func TestTraceCacheByteBudgetProperty(t *testing.T) {
	const (
		keys       = 10
		goroutines = 8
		iters      = 300
	)
	c := newTraceCache(3 * testTrace(keys-1).Bytes())

	var inflight [keys]atomic.Int32
	gen := func(id int) func() (*trace.Trace, error) {
		return func() (*trace.Trace, error) {
			if !inflight[id].CompareAndSwap(0, 1) {
				t.Errorf("two generations in flight for key %d", id)
			}
			time.Sleep(time.Duration(id%3) * 100 * time.Microsecond)
			inflight[id].Store(0)
			return testTrace(id), nil
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < iters; i++ {
				id := rng.Intn(keys)
				tr, err := c.get(testKey(id), gen(id))
				if err != nil || !reflect.DeepEqual(tr, testTrace(id)) {
					t.Errorf("key %d: %v, or not its generator's trace", id, err)
					return
				}
				if u := c.usage(); u.ResidentBytes > u.BudgetBytes {
					t.Errorf("resident %d > budget %d", u.ResidentBytes, u.BudgetBytes)
					return
				}
			}
		}()
	}
	within(t, "the property workers", &wg)
}

// TestTraceCacheSetBudget pins SetTraceBudget: a budget below what is
// resident empties the cache at once; a non-positive one restores the
// default.
func TestTraceCacheSetBudget(t *testing.T) {
	defer SetTraceBudget(0)
	for id := 0; id < 4; id++ {
		key := testKey(id)
		key.name = "setbudget-" + key.name
		if _, err := sharedTraceCache.get(key, fixed(id)); err != nil {
			t.Fatal(err)
		}
	}
	if u := TraceCacheStats(); u.Entries < 4 {
		t.Fatalf("expected at least 4 entries, got %+v", u)
	}
	SetTraceBudget(1)
	if u := TraceCacheStats(); u.Entries != 0 || u.ResidentBytes != 0 || u.BudgetBytes != 1 {
		t.Fatalf("SetTraceBudget(1) left %+v", u)
	}
	SetTraceBudget(0)
	if u := TraceCacheStats(); u.BudgetBytes != DefaultTraceBudgetBytes {
		t.Fatalf("SetTraceBudget(0) set the budget to %d, want the default", u.BudgetBytes)
	}
}

// TestTraceCacheRemeasuresGrownEntries admits on-demand traces nearly empty and
// draws them, as cells do: the next admission counts what was drawn and
// flushes once the sum passes the budget.
func TestTraceCacheRemeasuresGrownEntries(t *testing.T) {
	open := func(id int) func() (*trace.Trace, error) {
		return func() (*trace.Trace, error) { return trace.G5KLyon.Open(uint64(id), 30*86400, 8), nil }
	}
	// draw reads every node of the trace to its end, as a long cell would.
	draw := func(tr *trace.Trace) {
		for _, n := range tr.Nodes {
			for i := 0; ; i++ {
				if _, ok := n.At(i); !ok {
					break
				}
			}
		}
	}
	admitted := trace.G5KLyon.Open(0, 30*86400, 8).Bytes()
	grown := trace.G5KLyon.Generate(0, 30*86400, 8).Bytes()
	if grown < 20*admitted {
		t.Fatalf("setup: a drawn trace is %d bytes, an open one %d; want growth that dwarfs admission", grown, admitted)
	}
	// Room for about two and a half drawn traces, i.e. for dozens of open ones.
	budget := 5 * grown / 2
	c := newTraceCache(budget)

	var resident int64
	for id := 0; id < 3; id++ {
		tr, err := c.get(testKey(id), open(id))
		if err != nil {
			t.Fatal(err)
		}
		if u := c.usage(); u.Entries != id+1 || u.ResidentBytes != resident+admitted {
			t.Fatalf("admitting %d: %+v, want %d entries holding %d bytes", id, u, id+1, resident+admitted)
		}
		draw(tr)
		resident += tr.Bytes()
	}
	// Three drawn traces against a budget of two and a half: drawing carried
	// residency past the budget, and nothing checks it until an admission.
	if u := c.usage(); u.Entries != 3 || u.ResidentBytes != resident || resident <= budget {
		t.Fatalf("after drawing: %+v, want 3 entries holding %d bytes > budget %d", u, resident, budget)
	}
	if _, err := c.get(testKey(3), open(3)); err != nil {
		t.Fatal(err)
	}
	if u := c.usage(); u.Entries != 0 || u.ResidentBytes != 0 {
		t.Fatalf("the admission past the budget left %+v, want an empty cache", u)
	}
}

// TestPairedCellsShareOneTrace runs the baseline and every strategy of one
// environment on all workers: the paired comparison's cells must open their
// availability trace once between them. Every cell of the scenario completes
// in its first horizon, so none asks for a longer trace.
func TestPairedCellsShareOneTrace(t *testing.T) {
	p := Quick()
	p.Name = "paired-quick" // own seeds, so own entries in the shared cache
	sc := Scenario{Profile: p, Middleware: BOINC, TraceName: "seti", BotClass: "SMALL"}
	jobs := []Job{{Scenario: sc}}
	for _, st := range core.AllStrategies() {
		s := sc
		s.Strategy = &st
		jobs = append(jobs, Job{Scenario: s})
	}
	before := TraceCacheStats().Entries
	stats, err := New(p, jobs...).Run(context.Background(), NewResultStore())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Executed != len(jobs) {
		t.Fatalf("executed %d of %d cells", stats.Executed, len(jobs))
	}
	if after := TraceCacheStats().Entries; after != before+1 {
		t.Fatalf("%d cells of one environment added %d trace cache entries, want 1", len(jobs), after-before)
	}
}
