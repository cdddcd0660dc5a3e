package campaign

import (
	"container/list"
	"sync"

	"spequlos/internal/trace"
)

// Availability traces are a pure function of (source, seed, horizon, pool),
// and every strategy variant of the same (middleware, trace, bot, offset)
// cell needs the identical trace — the paper's paired comparison reuses one
// seed across the baseline and all 18 strategy combinations. The cache opens
// each distinct trace once and shares it across jobs and workers: a renewal
// trace is drawn on demand (trace.Profile.Open), so what is shared is every
// interval any of those cells has read so far, each drawn once; a spot trace
// is materialised when it is opened.
//
// Cells only read a shared trace (through trace.Node.At, which publishes what
// it draws atomically), so any number of concurrent simulations may hold the
// same *trace.Trace.
//
// # Admission, pinning and eviction contract
//
// The cache is byte-budgeted: each trace reports its resident size
// (trace.Trace.Bytes) and eviction is LRU over the *unpinned* entries until
// resident bytes fall back under the budget. An on-demand trace grows while
// cells read it, so an entry is measured at admission and again each time its
// last pin is released: the budget is charged what cells drew. Traces differ
// in size by orders of magnitude (a materialised spot trace, a paper-scale
// renewal trace read a day deep, one read to its horizon) and a campaign
// needs hundreds of distinct ones, so an entry-counted bound cannot hold peak
// RSS on a small machine; a byte bound with per-job pin/release makes peak
// trace memory track
//
//	budget + bytes pinned by in-flight jobs
//
// rather than the campaign size.
//
//   - get returns the trace PINNED. The caller must call the returned
//     release exactly once, when it no longer reads the trace (the runner
//     releases at job completion). Pinned entries are never evicted, so
//     eviction can never free a trace a worker still reads.
//   - An entry being generated is pinned from the moment it is admitted, so
//     eviction pressure from concurrent admissions cannot drop an in-flight
//     entry — single-flight holds: exactly one generation per key, whatever
//     the concurrency.
//   - When a generation fails, the entry is removed before its ready channel
//     closes; waiters re-enter get and the first one becomes the new
//     single-flight generator. A later success is admitted normally. N
//     waiters therefore cost at most one retry chain, never N concurrent
//     regenerations.
//   - Releasing the last pin re-measures the entry and makes it evictable at
//     the most-recently-used position; if the budget is already exceeded
//     (pins held it above the line, or the entry grew), eviction runs
//     immediately.
//
// The budget only bounds cache residency, not correctness: a cache with a
// 1-byte budget still serves every request, it just regenerates (and
// regeneration is deterministic, so evicted-then-requested traces come back
// byte-identical).

// traceKey identifies one deterministic generation.
type traceKey struct {
	name    string
	seed    uint64
	horizon float64
	pool    int
}

// traceCacheEntry carries a generation-in-progress or its result; ready is
// closed once tr (or err, for a failed generation) is set, so concurrent
// requests for the same trace wait for one generation instead of
// duplicating it.
type traceCacheEntry struct {
	key   traceKey
	ready chan struct{}
	tr    *trace.Trace
	err   error
	bytes int64
	// pins counts active users (including an in-flight generation). Only
	// entries with pins == 0 sit in the LRU list and may be evicted.
	pins int
	elem *list.Element // LRU position; nil while pinned or in flight
}

// traceCache is a byte-budgeted, concurrency-safe, single-flight trace
// cache with refcount pinning; see the package comment above for the
// admission/eviction contract.
type traceCache struct {
	mu       sync.Mutex
	budget   int64
	resident int64 // bytes of every completed entry still in the map
	entries  map[traceKey]*traceCacheEntry
	lru      *list.List // unpinned completed entries, front = most recent
}

// DefaultTraceBudgetBytes bounds resident trace bytes in the shared cache
// (512 MiB). Traces are drawn only as far as cells read them, so the quick
// matrix's 72 traces leave a few MB resident and a paper-scale (`full`)
// trace a fraction of a MB; generated whole, `full`'s 180 traces would
// exceed the line. Whatever exceeds it is evicted LRU and drawn again,
// deterministically, on re-use.
const DefaultTraceBudgetBytes = 512 << 20

// sharedTraceCache serves every campaign in the process.
var sharedTraceCache = newTraceCache(DefaultTraceBudgetBytes)

func newTraceCache(budget int64) *traceCache {
	return &traceCache{budget: budget, entries: map[traceKey]*traceCacheEntry{}, lru: list.New()}
}

// get returns the cached trace for the key pinned, generating it (once,
// whatever the concurrency) on a miss. The caller owns one pin and must
// call release exactly once when done reading the trace.
func (c *traceCache) get(key traceKey, gen func() (*trace.Trace, error)) (tr *trace.Trace, release func(), err error) {
	for {
		c.mu.Lock()
		if e, ok := c.entries[key]; ok {
			// Pin before waiting: a pinned entry cannot be evicted, so the
			// single-flight result survives any concurrent admission pressure.
			e.pins++
			c.unlinkLocked(e)
			c.mu.Unlock()
			<-e.ready
			if e.err != nil {
				// The generation this entry tracked failed; the entry was
				// detached from the map before ready closed. Drop our pin on
				// the dead entry and re-enter the single-flight path: the
				// first waiter back becomes the new (sole) generator, and its
				// success is admitted to the cache for everyone else.
				c.mu.Lock()
				e.pins--
				c.mu.Unlock()
				continue
			}
			return e.tr, c.releaseFunc(e), nil
		}
		e := &traceCacheEntry{key: key, ready: make(chan struct{}), pins: 1}
		c.entries[key] = e
		c.mu.Unlock()

		tr, err := gen()
		c.mu.Lock()
		if err != nil {
			// Detach before closing ready so waiters re-enter get instead of
			// finding a poisoned entry; the in-flight entry was pinned and
			// never resident, so there is no accounting to unwind.
			e.err = err
			delete(c.entries, key)
			c.mu.Unlock()
			close(e.ready)
			return nil, func() {}, err
		}
		e.tr = tr
		e.bytes = tr.Bytes()
		c.resident += e.bytes
		c.evictLocked()
		c.mu.Unlock()
		close(e.ready)
		return tr, c.releaseFunc(e), nil
	}
}

// releaseFunc returns the one-shot pin release for an entry. The sync.Once
// makes a double release (a paranoid defer plus an explicit call) harmless
// instead of corrupting the pin count.
func (c *traceCache) releaseFunc(e *traceCacheEntry) func() {
	var once sync.Once
	return func() { once.Do(func() { c.release(e) }) }
}

// release drops one pin; the last pin re-measures the entry (nobody can be
// drawing it any more, and cells may have since it was admitted), makes it
// evictable (MRU position) and triggers eviction if residency is above the
// budget.
func (c *traceCache) release(e *traceCacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e.pins--
	if e.pins > 0 {
		return
	}
	if cur, ok := c.entries[e.key]; !ok || cur != e {
		return // detached (failed generation) — never became resident
	}
	c.resident -= e.bytes
	e.bytes = e.tr.Bytes()
	c.resident += e.bytes
	e.elem = c.lru.PushFront(e)
	c.evictLocked()
}

// unlinkLocked removes an entry from the LRU list while it is pinned.
func (c *traceCache) unlinkLocked(e *traceCacheEntry) {
	if e.elem != nil {
		c.lru.Remove(e.elem)
		e.elem = nil
	}
}

// evictLocked drops least-recently-used unpinned entries until resident
// bytes fit the budget. Pinned and in-flight entries are not in the LRU
// list, so residency may legitimately exceed the budget by the pinned
// bytes — that is the "budget + pinned" bound the runner's peak RSS tracks.
func (c *traceCache) evictLocked() {
	for c.resident > c.budget {
		back := c.lru.Back()
		if back == nil {
			return // everything left is pinned or in flight
		}
		e := back.Value.(*traceCacheEntry)
		c.lru.Remove(back)
		e.elem = nil
		delete(c.entries, e.key)
		c.resident -= e.bytes
	}
}

// setBudget replaces the byte budget (n <= 0 restores the default) and
// applies it immediately.
func (c *traceCache) setBudget(n int64) {
	if n <= 0 {
		n = DefaultTraceBudgetBytes
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.budget = n
	c.evictLocked()
}

// usage reports the cache's current accounting under the lock.
func (c *traceCache) usage() TraceCacheUsage {
	c.mu.Lock()
	defer c.mu.Unlock()
	u := TraceCacheUsage{BudgetBytes: c.budget, ResidentBytes: c.resident, Entries: len(c.entries)}
	for _, e := range c.entries {
		if e.pins > 0 && e.tr != nil {
			u.PinnedBytes += e.bytes
		}
	}
	return u
}

// TraceCacheUsage is a snapshot of the shared trace cache's accounting:
// resident bytes never exceed BudgetBytes + PinnedBytes, the invariant the
// byte-budget property test pins.
type TraceCacheUsage struct {
	BudgetBytes   int64
	ResidentBytes int64
	PinnedBytes   int64
	Entries       int
}

// SetTraceBudget sets the shared trace cache's byte budget (n <= 0 restores
// DefaultTraceBudgetBytes). Campaigns whose Profile.TraceBudgetBytes is set
// apply it automatically.
func SetTraceBudget(n int64) { sharedTraceCache.setBudget(n) }

// TraceCacheStats returns the shared trace cache's current usage, the
// number the `full` CI job checks its RSS ceiling against.
func TraceCacheStats() TraceCacheUsage { return sharedTraceCache.usage() }

// CachedTrace returns the scenario's availability trace through the shared
// process-wide cache, pinned: the returned trace is shared, must be treated
// as immutable, and release must be called exactly once when the caller no
// longer reads it — the runner releases at job completion so peak trace
// memory tracks the byte budget, not the campaign size.
func CachedTrace(sc Scenario, horizon float64) (tr *trace.Trace, release func(), err error) {
	key := traceKey{name: sc.TraceName, seed: sc.Seed(), horizon: horizon, pool: sc.Profile.PoolCap}
	return sharedTraceCache.get(key, func() (*trace.Trace, error) {
		return sc.GenerateTrace(horizon)
	})
}
