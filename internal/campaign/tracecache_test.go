package campaign

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
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

// TestTraceCachePinsInFlightEntry is the regression test for the FIFO
// cache's eviction-during-generation bug: admission pressure while a
// generation is in flight must not evict the in-flight entry, or a
// concurrent get for the same key silently starts a second generation.
// The budget is 1 byte, so every admission triggers maximal pressure.
func TestTraceCachePinsInFlightEntry(t *testing.T) {
	c := newTraceCache(1)
	var gens atomic.Int32
	started := make(chan struct{})
	unblock := make(chan struct{})
	genA := func() (*trace.Trace, error) {
		if gens.Add(1) == 1 {
			close(started)
			<-unblock
		}
		return testTrace(0), nil
	}

	results := make(chan *trace.Trace, 2)
	go func() {
		tr, release, err := c.get(testKey(0), genA)
		if err != nil {
			t.Error(err)
		}
		release()
		results <- tr
	}()
	<-started

	// A waiter joins while the generation is in flight…
	go func() {
		tr, release, err := c.get(testKey(0), genA)
		if err != nil {
			t.Error(err)
		}
		release()
		results <- tr
	}()
	waitFor(t, "waiter pinned on the in-flight entry", func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		e, ok := c.entries[testKey(0)]
		return ok && e.pins >= 2
	})

	// …and other keys churn through the over-budget cache, each admission
	// running eviction. With entry-counted FIFO this dropped the in-flight
	// entry; pinning must keep it.
	for id := 1; id <= 8; id++ {
		id := id
		tr, release, err := c.get(testKey(id), func() (*trace.Trace, error) { return testTrace(id), nil })
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tr, testTrace(id)) {
			t.Fatalf("key %d returned wrong trace", id)
		}
		release()
	}

	close(unblock)
	a, b := <-results, <-results
	if a != b {
		t.Fatalf("concurrent gets for one key returned distinct traces — single-flight broken")
	}
	if n := gens.Load(); n != 1 {
		t.Fatalf("GenerateTrace ran %d times for one key, want exactly 1", n)
	}
}

// TestTraceCacheFailureReentersSingleFlight is the regression test for the
// failure thundering herd: when a generation fails, the N blocked waiters
// must re-enter the single-flight path — one of them becomes the sole new
// generator, its success is admitted to the cache, and everyone shares it —
// instead of each launching an uncached regeneration.
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
		_, _, err := c.get(testKey(0), gen)
		errCh <- err
	}()
	<-started

	var wg sync.WaitGroup
	results := make(chan *trace.Trace, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr, release, err := c.get(testKey(0), gen)
			if err != nil {
				t.Error(err)
				return
			}
			release()
			results <- tr
		}()
	}
	waitFor(t, "waiters pinned on the in-flight entry", func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		e, ok := c.entries[testKey(0)]
		return ok && e.pins == waiters+1
	})
	close(unblock)

	if err := <-errCh; !errors.Is(err, failed) {
		t.Fatalf("generator got %v, want the injected failure", err)
	}
	wg.Wait()
	close(results)
	var first *trace.Trace
	for tr := range results {
		if first == nil {
			first = tr
		} else if tr != first {
			t.Fatal("waiters received distinct traces — retry bypassed the cache")
		}
	}
	if first == nil {
		t.Fatal("no waiter received a trace")
	}
	// One failure plus exactly one retried generation — not one per waiter.
	if n := gens.Load(); n != 2 {
		t.Fatalf("GenerateTrace ran %d times, want 2 (one failure + one single-flight retry)", n)
	}
	// The retried success was admitted: a fresh get is a cache hit.
	if _, release, err := c.get(testKey(0), gen); err != nil {
		t.Fatal(err)
	} else {
		release()
	}
	if n := gens.Load(); n != 2 {
		t.Fatalf("success was not re-admitted to the cache (gen ran %d times)", n)
	}
}

// TestTraceCacheByteBudgetProperty hammers one cache from many goroutines
// with randomized gets and releases under a budget that fits only a few
// traces, checking the cache's contract at every step:
//
//   - resident bytes ≤ budget + pinned bytes (pins may hold residency over
//     the line; nothing else may),
//   - no two generations for the same key run concurrently (single-flight),
//   - every returned trace — including evicted-then-regenerated ones — is
//     byte-identical to the deterministic generator output.
//
// Run under -race this also shakes out lock-ordering bugs in get/release.
func TestTraceCacheByteBudgetProperty(t *testing.T) {
	const (
		keys       = 10
		goroutines = 8
		iters      = 300
	)
	// Budget fits roughly three of the larger test traces.
	budget := 3 * testTrace(keys-1).Bytes()
	c := newTraceCache(budget)

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
	checkInvariant := func() {
		u := c.usage()
		if u.ResidentBytes > u.BudgetBytes+u.PinnedBytes {
			t.Errorf("resident %d > budget %d + pinned %d", u.ResidentBytes, u.BudgetBytes, u.PinnedBytes)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < iters; i++ {
				id := rng.Intn(keys)
				tr, release, err := c.get(testKey(id), gen(id))
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(tr, testTrace(id)) {
					t.Errorf("key %d: regenerated trace not byte-identical", id)
					release()
					return
				}
				checkInvariant()
				release()
				if i%16 == 0 {
					checkInvariant()
				}
			}
		}()
	}
	wg.Wait()

	// With every pin released the budget alone bounds residency.
	u := c.usage()
	if u.PinnedBytes != 0 {
		t.Fatalf("pinned bytes %d after all releases", u.PinnedBytes)
	}
	if u.ResidentBytes > u.BudgetBytes {
		t.Fatalf("resident %d > budget %d after all releases", u.ResidentBytes, u.BudgetBytes)
	}
}

// TestParseByteSize pins the -trace-budget size grammar.
func TestParseByteSize(t *testing.T) {
	cases := map[string]int64{
		"0":       0,
		"1024":    1024,
		"512MiB":  512 << 20,
		"1.5GiB":  3 << 29,
		"2gb":     2e9,
		"100kb":   100e3,
		"64 KiB ": 64 << 10,
		"7B":      7,
	}
	for in, want := range cases {
		got, err := ParseByteSize(in)
		if err != nil || got != want {
			t.Errorf("ParseByteSize(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "MB", "-1GB", "1.2.3MiB", "12q"} {
		if _, err := ParseByteSize(bad); err == nil {
			t.Errorf("ParseByteSize(%q) unexpectedly succeeded", bad)
		}
	}
}

// TestTraceCacheSetBudget pins SetTraceBudget semantics: shrinking the
// budget evicts immediately; a non-positive budget restores the default.
func TestTraceCacheSetBudget(t *testing.T) {
	c := newTraceCache(1 << 20)
	for id := 0; id < 4; id++ {
		id := id
		_, release, err := c.get(testKey(id), func() (*trace.Trace, error) { return testTrace(id), nil })
		if err != nil {
			t.Fatal(err)
		}
		release()
	}
	if u := c.usage(); u.Entries != 4 {
		t.Fatalf("expected 4 resident entries, got %d", u.Entries)
	}
	c.setBudget(1)
	if u := c.usage(); u.Entries != 0 || u.ResidentBytes != 0 {
		t.Fatalf("shrinking the budget did not evict: %+v", u)
	}
	c.setBudget(0)
	if u := c.usage(); u.BudgetBytes != DefaultTraceBudgetBytes {
		t.Fatalf("budget 0 should restore the default, got %d", u.BudgetBytes)
	}
}

// TestTraceCacheRemeasuresGrownEntries pins the accounting of entries that
// grow while pinned: an on-demand trace is admitted nearly empty, cells draw
// it, and the budget is charged the drawn size when the last pin goes —
// eviction stays LRU over unpinned entries and never takes a pinned one.
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

	// Two pins on entry 0; it grows under them and is charged nothing new
	// until the second is released.
	tr0, release0a, err := c.get(testKey(0), open(0))
	if err != nil {
		t.Fatal(err)
	}
	_, release0b, _ := c.get(testKey(0), open(0))
	draw(tr0)
	release0a()
	if u := c.usage(); u.ResidentBytes != admitted || u.PinnedBytes != admitted {
		t.Fatalf("one pin left: resident %d, pinned %d, want the admitted %d", u.ResidentBytes, u.PinnedBytes, admitted)
	}
	release0b()
	if u := c.usage(); u.ResidentBytes != tr0.Bytes() || u.PinnedBytes != 0 || tr0.Bytes() <= grown {
		t.Fatalf("last pin released: resident %d, pinned %d, want the drawn %d (> %d)", u.ResidentBytes, u.PinnedBytes, tr0.Bytes(), grown)
	}

	// Entries 1 and 2 grow the same way; entry 2 stays pinned. Residency is
	// now three drawn traces against a budget of two and a half.
	tr1, release1, _ := c.get(testKey(1), open(1))
	tr2, release2, _ := c.get(testKey(2), open(2))
	draw(tr1)
	draw(tr2)
	release1()
	c.mu.Lock()
	_, has0 := c.entries[testKey(0)]
	_, has1 := c.entries[testKey(1)]
	_, has2 := c.entries[testKey(2)]
	c.mu.Unlock()
	if !has0 || !has1 || !has2 {
		t.Fatalf("evicted before the budget was reached: entries 0 %v, 1 %v, 2 %v", has0, has1, has2)
	}
	release2()
	// Releasing 2 charged its growth and pushed residency over: 0 is the
	// least recently used and goes, 1 and 2 stay.
	c.mu.Lock()
	_, has0 = c.entries[testKey(0)]
	_, has1 = c.entries[testKey(1)]
	_, has2 = c.entries[testKey(2)]
	c.mu.Unlock()
	if has0 || !has1 || !has2 {
		t.Fatalf("after the growth was charged: entries 0 %v, 1 %v, 2 %v; want only the LRU entry 0 evicted", has0, has1, has2)
	}
	if u := c.usage(); u.ResidentBytes != tr1.Bytes()+tr2.Bytes() || u.ResidentBytes > budget {
		t.Fatalf("resident %d, want %d within the budget %d", u.ResidentBytes, tr1.Bytes()+tr2.Bytes(), budget)
	}

	// A pinned entry is never evicted, however far it grows past the budget.
	c.setBudget(1)
	tr3, release3, _ := c.get(testKey(3), open(3))
	draw(tr3)
	_, release4, _ := c.get(testKey(4), open(4)) // admission pressure
	release4()
	if got, _ := tr3.Nodes[0].At(0); got == (trace.Interval{}) {
		t.Fatal("setup: node 0 of entry 3 has no interval")
	}
	c.mu.Lock()
	e3, has3 := c.entries[testKey(3)]
	c.mu.Unlock()
	if !has3 || e3.tr != tr3 {
		t.Fatal("a pinned entry was evicted")
	}
	release3()
	if u := c.usage(); u.Entries != 0 || u.ResidentBytes != 0 {
		t.Fatalf("budget 1, nothing pinned: %+v", u)
	}
}
