package loadgen

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"spequlos/internal/core"
	"spequlos/internal/service"
	"spequlos/internal/stats"
)

// opClass names a request class in the report.
type opClass string

// The request classes the harness measures. Status, credit and order
// requests hit the gated stack socket; progress requests hit the DG socket;
// ticks are the Scheduler monitor loop's POST /scheduler/step calls.
const (
	opStatus   opClass = "status"
	opProgress opClass = "progress"
	opCredit   opClass = "credit"
	opOrder    opClass = "order"
	opTick     opClass = "tick"
)

// maxErrorSamples bounds how many unexpected-error messages a report keeps.
const maxErrorSamples = 12

// recorder accumulates per-request observations from all client goroutines.
type recorder struct {
	mu         sync.Mutex
	lat        map[opClass][]float64 // admitted-request latencies, ms
	requests   int64                 // every measured request, any outcome
	throttled  int64                 // 429 responses (expected under burst)
	unexpected int64
	samples    []string
	ticks      []float64 // tick durations, ms
	overruns   int64     // ticks slower than the tick period
}

// request records one stack-socket request. 2xx is success, 429 is expected
// throttling; anything else — including transport errors — is an unexpected
// error. Latency is recorded for admitted responses only, so a wall of cheap
// 429s cannot flatter the percentiles.
func (r *recorder) request(idx int, op opClass, tier core.Tier, start time.Time, resp *http.Response, err error) {
	ms := float64(time.Since(start)) / float64(time.Millisecond)
	var status int
	if err == nil {
		status = resp.StatusCode
		drainClose(resp)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.requests++
	if err != nil {
		r.fail(fmt.Sprintf("%s (%s, client %d): %v", op, tier.OrFree(), idx, err))
		return
	}
	switch {
	case status == http.StatusTooManyRequests:
		r.throttled++
	case status >= 200 && status < 300:
		r.lat[op] = append(r.lat[op], ms)
	default:
		r.fail(fmt.Sprintf("%s (%s, client %d): HTTP %d", op, tier.OrFree(), idx, status))
	}
}

// dgRequest records one DG-socket aggregated progress query. The DG socket
// is ungated, so any error at all is unexpected.
func (r *recorder) dgRequest(idx int, start time.Time, err error) {
	ms := float64(time.Since(start)) / float64(time.Millisecond)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.requests++
	if err != nil {
		r.fail(fmt.Sprintf("progress (client %d): %v", idx, err))
		return
	}
	r.lat[opProgress] = append(r.lat[opProgress], ms)
}

// tick records one Scheduler monitor tick; msg is non-empty when the tick
// itself failed.
func (r *recorder) tick(dur, period time.Duration, msg string) {
	ms := float64(dur) / float64(time.Millisecond)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lat[opTick] = append(r.lat[opTick], ms)
	r.ticks = append(r.ticks, ms)
	if dur > period {
		r.overruns++
	}
	if msg != "" {
		r.fail(msg)
	}
}

// fail counts one unexpected error, keeping the first few messages as
// samples. Callers hold r.mu.
func (r *recorder) fail(msg string) {
	r.unexpected++
	if len(r.samples) < maxErrorSamples {
		r.samples = append(r.samples, msg)
	}
}

// LatencyStats summarizes one request class's admitted-request latencies.
type LatencyStats struct {
	// Count is the number of admitted (2xx) requests in the class.
	Count int `json:"count"`
	// P50Ms, P95Ms and P99Ms are latency quantiles in milliseconds.
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`
	// MaxMs is the slowest admitted request in milliseconds.
	MaxMs float64 `json:"max_ms"`
}

// statsOf computes LatencyStats over a sample set: nearest-rank quantiles,
// each an observed latency.
func statsOf(ms []float64) LatencyStats {
	return LatencyStats{
		Count: len(ms),
		P50Ms: stats.NearestRank(ms, 0.50),
		P95Ms: stats.NearestRank(ms, 0.95),
		P99Ms: stats.NearestRank(ms, 0.99),
		MaxMs: stats.NearestRank(ms, 1),
	}
}

// Report is the result of one load run.
type Report struct {
	// Profile and Clients echo the run configuration.
	Profile string `json:"profile"`
	Clients int    `json:"clients"`
	// DurationSec is the configured load window in seconds.
	DurationSec float64 `json:"duration_sec"`
	// Requests is every measured request: stack socket, DG socket and ticks.
	Requests int64 `json:"requests"`
	// RequestsPerSec is Requests over the load window.
	RequestsPerSec float64 `json:"requests_per_sec"`
	// Overall aggregates admitted-request latency across every class.
	Overall LatencyStats `json:"overall"`
	// Latency breaks admitted-request latency down per request class.
	Latency map[string]LatencyStats `json:"latency"`
	// Throttled429 counts rate-limited responses — expected under burst.
	Throttled429 int64 `json:"throttled_429"`
	// ThrottledByTier splits the 429s by the keys' service class; a healthy
	// run throttles the free tier and leaves enterprise at zero.
	ThrottledByTier map[string]int64 `json:"throttled_by_tier"`
	// UnexpectedErrors counts transport errors and non-2xx/non-429 statuses.
	// A healthy stack records zero; Gate fails the run otherwise.
	UnexpectedErrors int64 `json:"unexpected_errors"`
	// ErrorRate is UnexpectedErrors over Requests.
	ErrorRate float64 `json:"error_rate"`
	// ErrorSamples holds the first few unexpected-error messages.
	ErrorSamples []string `json:"error_samples,omitempty"`
	// Ticks is how many Scheduler monitor ticks ran over the socket.
	Ticks int `json:"ticks"`
	// TickOverruns counts ticks slower than the tick period, and
	// TickOverrunRate is their fraction.
	TickOverruns    int64   `json:"tick_overruns"`
	TickOverrunRate float64 `json:"tick_overrun_rate"`
	// BatchesOrdered and BatchesCompleted count QoS orders placed and
	// batches the Scheduler finalized end-to-end during the run.
	BatchesOrdered   int `json:"batches_ordered"`
	BatchesCompleted int `json:"batches_completed"`
	// GateStats is the auth gateway's aggregate admission counters.
	GateStats service.GateMetrics `json:"gate_stats"`
}

// report assembles the Report from the recorder's accumulated observations.
func (r *recorder) report(cfg Config) *Report {
	r.mu.Lock()
	defer r.mu.Unlock()
	rep := &Report{
		Profile:          cfg.Profile,
		Clients:          cfg.Clients,
		DurationSec:      cfg.Duration.Seconds(),
		Requests:         r.requests,
		Latency:          map[string]LatencyStats{},
		Throttled429:     r.throttled,
		UnexpectedErrors: r.unexpected,
		ErrorSamples:     append([]string(nil), r.samples...),
		Ticks:            len(r.ticks),
		TickOverruns:     r.overruns,
	}
	var all []float64
	for op, ms := range r.lat {
		rep.Latency[string(op)] = statsOf(ms)
		if op != opTick { // ticks are a control loop, not client traffic
			all = append(all, ms...)
		}
	}
	rep.Overall = statsOf(all)
	if cfg.Duration > 0 {
		rep.RequestsPerSec = float64(r.requests) / cfg.Duration.Seconds()
	}
	if r.requests > 0 {
		rep.ErrorRate = float64(r.unexpected) / float64(r.requests)
	}
	if len(r.ticks) > 0 {
		rep.TickOverrunRate = float64(r.overruns) / float64(len(r.ticks))
	}
	return rep
}

// Gate is the pass/fail verdict of a load run: any unexpected error fails
// it, and the message carries the kept samples. A nil error means the run
// was clean. Latency is not gated here; bench/ is the performance record.
func (rep *Report) Gate() error {
	if rep.UnexpectedErrors == 0 {
		return nil
	}
	return fmt.Errorf("%d unexpected errors (want 0; first: %s)",
		rep.UnexpectedErrors, strings.Join(rep.ErrorSamples, "; "))
}

// Summary renders the report as the human-readable run digest.
func (rep *Report) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "profile %s: %d clients, %.1fs, %d requests (%.0f req/s)\n",
		rep.Profile, rep.Clients, rep.DurationSec, rep.Requests, rep.RequestsPerSec)
	fmt.Fprintf(&sb, "latency overall: p50 %.2fms p95 %.2fms p99 %.2fms max %.2fms (%d admitted)\n",
		rep.Overall.P50Ms, rep.Overall.P95Ms, rep.Overall.P99Ms, rep.Overall.MaxMs, rep.Overall.Count)
	ops := make([]string, 0, len(rep.Latency))
	for op := range rep.Latency {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		s := rep.Latency[op]
		fmt.Fprintf(&sb, "  %-8s p50 %.2fms p95 %.2fms p99 %.2fms (%d)\n", op, s.P50Ms, s.P95Ms, s.P99Ms, s.Count)
	}
	fmt.Fprintf(&sb, "throttled 429s: %d (by tier: %v)\n", rep.Throttled429, rep.ThrottledByTier)
	fmt.Fprintf(&sb, "unexpected errors: %d (rate %.4f)\n", rep.UnexpectedErrors, rep.ErrorRate)
	for _, s := range rep.ErrorSamples {
		fmt.Fprintf(&sb, "  ! %s\n", s)
	}
	fmt.Fprintf(&sb, "scheduler ticks: %d, overruns %d (rate %.4f)\n", rep.Ticks, rep.TickOverruns, rep.TickOverrunRate)
	fmt.Fprintf(&sb, "batches: %d ordered, %d completed\n", rep.BatchesOrdered, rep.BatchesCompleted)
	fmt.Fprintf(&sb, "gate: %d allowed, %d unauthorized, %d throttled\n",
		rep.GateStats.Allowed, rep.GateStats.Unauthorized, rep.GateStats.Throttled)
	return sb.String()
}

// drainClose discards and closes a response body so the transport can reuse
// the connection.
func drainClose(resp *http.Response) {
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
}
