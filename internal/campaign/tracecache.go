package campaign

import (
	"maps"
	"sync"

	"spequlos/internal/trace"
)

// A trace is a pure function of (source, seed, horizon, pool), and the
// paired comparison runs a cell's baseline and strategies on one seed, so
// the cache opens each trace once for all of them (cells only read it). It
// is a single-flight map with a flush threshold. get joins the key's flight
// or starts one; a failed flight leaves the map before its waiters wake, and
// they retry through get. When a flight lands, and in SetTraceBudget, the
// cache sums trace.Trace.Bytes over its finished entries and, above the
// budget, drops them all; flights stay. Cells draw between admissions, so
// residency may pass the budget until the next one. A dropped trace stays
// valid for its readers and is drawn again, byte-identical, on request.

// traceKey identifies one deterministic generation.
type traceKey struct {
	name    string
	seed    uint64
	horizon float64
	pool    int
}

// traceFlight is one generation: ready closes once tr or err is set.
type traceFlight struct {
	ready chan struct{}
	tr    *trace.Trace
	err   error
}

type traceCache struct {
	mu      sync.Mutex
	budget  int64
	entries map[traceKey]*traceFlight
}

// DefaultTraceBudgetBytes is the shared cache's flush threshold (512 MiB);
// the complete `full` matrix leaves 36 MiB resident.
const DefaultTraceBudgetBytes = 512 << 20

// sharedTraceCache serves every campaign in the process.
var sharedTraceCache = newTraceCache(DefaultTraceBudgetBytes)

func newTraceCache(budget int64) *traceCache {
	return &traceCache{budget: budget, entries: map[traceKey]*traceFlight{}}
}

// get returns the trace for the key, generated once whatever the concurrency.
func (c *traceCache) get(key traceKey, gen func() (*trace.Trace, error)) (*trace.Trace, error) {
	c.mu.Lock()
	for f, ok := c.entries[key]; ok; f, ok = c.entries[key] {
		c.mu.Unlock()
		if <-f.ready; f.err == nil {
			return f.tr, nil
		}
		c.mu.Lock() // the flight failed and left the map: look again
	}
	f := &traceFlight{ready: make(chan struct{})}
	c.entries[key] = f
	c.mu.Unlock()

	tr, err := gen()
	c.mu.Lock()
	if f.tr, f.err = tr, err; err != nil {
		delete(c.entries, key)
	} else {
		c.flushLocked()
	}
	c.mu.Unlock()
	close(f.ready)
	return tr, err
}

// residentLocked sums the current size of every finished entry.
func (c *traceCache) residentLocked() (n int64) {
	for _, f := range c.entries {
		if f.tr != nil {
			n += f.tr.Bytes()
		}
	}
	return n
}

// flushLocked drops every finished entry if together they pass the budget.
func (c *traceCache) flushLocked() {
	if c.residentLocked() > c.budget {
		maps.DeleteFunc(c.entries, func(_ traceKey, f *traceFlight) bool { return f.tr != nil })
	}
}

// TraceCacheUsage is a snapshot of the shared trace cache. ResidentBytes
// counts finished entries; Entries counts flights too.
type TraceCacheUsage struct {
	BudgetBytes, ResidentBytes int64
	Entries                    int
}

// SetTraceBudget sets the shared trace cache's flush threshold, flushing at
// once if it is passed; n <= 0 restores DefaultTraceBudgetBytes.
func SetTraceBudget(n int64) {
	if n <= 0 {
		n = DefaultTraceBudgetBytes
	}
	c := sharedTraceCache
	c.mu.Lock()
	defer c.mu.Unlock()
	c.budget = n
	c.flushLocked()
}

// TraceCacheStats returns the shared trace cache's current usage.
func TraceCacheStats() TraceCacheUsage { return sharedTraceCache.usage() }

func (c *traceCache) usage() TraceCacheUsage {
	c.mu.Lock()
	defer c.mu.Unlock()
	return TraceCacheUsage{BudgetBytes: c.budget, ResidentBytes: c.residentLocked(), Entries: len(c.entries)}
}

// CachedTrace returns the scenario's availability trace through the shared
// cache. The trace is shared: callers must treat it as immutable.
func CachedTrace(sc Scenario, horizon float64) (*trace.Trace, error) {
	key := traceKey{name: sc.TraceName, seed: sc.Seed(), horizon: horizon, pool: sc.Profile.PoolCap}
	return sharedTraceCache.get(key, func() (*trace.Trace, error) { return sc.GenerateTrace(horizon) })
}
