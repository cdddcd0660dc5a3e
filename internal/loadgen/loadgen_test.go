package loadgen

import (
	"strings"
	"testing"
	"time"

	"spequlos/internal/core"
)

// testConfig is a CI-sized run: short enough for the race detector on a
// shared runner, long enough that every request class fires, free-tier
// bursts hit the rate limiter, and at least one monitor tick lands.
func testConfig() Config {
	cfg := Smoke()
	cfg.Duration = 1500 * time.Millisecond
	cfg.BatchDuration = 700 * time.Millisecond
	cfg.RatePerSec = 300
	return cfg
}

// TestRunSmoke drives the full gated stack over real loopback sockets and
// pins the PR's acceptance bar: zero unexpected errors, free-tier 429s
// under burst, and an untouched enterprise tier.
func TestRunSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("socket load run in -short mode")
	}
	rep, err := Run(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep.Summary())

	if rep.UnexpectedErrors != 0 {
		t.Errorf("unexpected errors %d, want 0; samples: %v", rep.UnexpectedErrors, rep.ErrorSamples)
	}
	if rep.Requests == 0 || rep.Overall.Count == 0 {
		t.Fatalf("no admitted traffic measured: %+v", rep)
	}
	if rep.Overall.P50Ms > rep.Overall.P99Ms || rep.Overall.P99Ms > rep.Overall.MaxMs {
		t.Errorf("non-monotone quantiles: %+v", rep.Overall)
	}

	// Tiered throttling end-to-end: the unpaced free tier must draw 429s
	// while the paced enterprise tier rides under its weight-derived limit.
	if rep.ThrottledByTier[string(core.TierFree)] == 0 {
		t.Errorf("free tier drew no 429s under burst: %+v", rep.ThrottledByTier)
	}
	if n := rep.ThrottledByTier[string(core.TierEnterprise)]; n != 0 {
		t.Errorf("enterprise tier was throttled %d times, want 0", n)
	}
	if rep.Throttled429 == 0 || rep.GateStats.Throttled == 0 {
		t.Errorf("throttling not visible in gate stats: %+v", rep.GateStats)
	}
	if rep.GateStats.Unauthorized != 0 {
		t.Errorf("harness clients drew %d 401s, want 0", rep.GateStats.Unauthorized)
	}

	// The QoS loop actually turned: orders were placed and the monitor
	// ticked over the socket.
	if rep.BatchesOrdered == 0 {
		t.Error("no QoS batches ordered")
	}
	if rep.Ticks == 0 {
		t.Error("no scheduler ticks ran")
	}
	for _, op := range []string{"status", "credit", "order", "progress", "tick"} {
		if rep.Latency[op].Count == 0 {
			t.Errorf("request class %q saw no admitted traffic", op)
		}
	}
}

// TestRunRejectsBadConfig pins the argument validation.
func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
}

// TestQuantile pins the report's nearest-rank quantiles on a known sample
// set, given in any order.
func TestQuantile(t *testing.T) {
	s := statsOf([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if want := (LatencyStats{Count: 10, P50Ms: 5, P95Ms: 10, P99Ms: 10, MaxMs: 10}); s != want {
		t.Errorf("statsOf = %+v, want %+v", s, want)
	}
}

// TestStatsOfEmpty pins the zero-sample LatencyStats.
func TestStatsOfEmpty(t *testing.T) {
	if s := statsOf(nil); s.Count != 0 || s.P99Ms != 0 {
		t.Errorf("statsOf(nil) = %+v", s)
	}
}

// TestGate pins the run verdict: any unexpected error fails it and the
// message carries the sample; a clean report passes.
func TestGate(t *testing.T) {
	errored := &Report{UnexpectedErrors: 2, ErrorSamples: []string{"order: HTTP 500"}}
	if err := errored.Gate(); err == nil {
		t.Error("errored run passed gate")
	} else if !strings.Contains(err.Error(), "HTTP 500") {
		t.Errorf("gate error drops the sample: %v", err)
	}
	if err := (&Report{Overall: LatencyStats{P99Ms: 80}}).Gate(); err != nil {
		t.Errorf("clean run failed gate: %v", err)
	}
}
