// Perf floor: the quick campaign must not regress more than 30% below the
// committed BENCH_quick.json baseline. The comparison uses events per CPU
// second when the baseline records it (robust to co-scheduled load);
// `go test -short` skips the check.
package spequlos

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"spequlos/internal/campaign"
	"spequlos/internal/core"
	"spequlos/internal/experiments"
)

// benchBaseline is the subset of BENCH_quick.json the floor check reads.
type benchBaseline struct {
	Profile         string  `json:"profile"`
	EventsPerSec    float64 `json:"events_per_sec"`
	EventsPerCPUSec float64 `json:"events_per_cpu_sec"`
}

const perfFloorFraction = 0.70 // fail when >30% below baseline

func TestQuickCampaignPerfFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("perf floor skipped with -short")
	}
	if raceDetectorEnabled {
		t.Skip("perf floor skipped under the race detector (2–20× slowdown)")
	}
	data, err := os.ReadFile("BENCH_quick.json")
	if err != nil {
		t.Fatalf("reading committed baseline: %v", err)
	}
	var base benchBaseline
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatalf("parsing BENCH_quick.json: %v", err)
	}
	useCPU := base.EventsPerCPUSec > 0 && campaign.ProcessCPUSeconds() > 0
	baseline := base.EventsPerSec
	metric := "events/sec"
	if useCPU {
		baseline = base.EventsPerCPUSec
		metric = "events/cpu-sec"
	}
	if baseline <= 0 {
		t.Fatalf("BENCH_quick.json has no usable throughput baseline: %+v", base)
	}
	floor := perfFloorFraction * baseline

	// The same plan the bench CLI executes for the committed report: the
	// full quick matrix with every strategy combination.
	p := experiments.Quick()
	opts := experiments.ArtifactOptions{
		Spec: experiments.MatrixSpec{Strategies: core.AllStrategies()},
	}

	var measured float64
	for attempt := 0; attempt < 2; attempt++ {
		plan := experiments.PlanArtifacts(p, opts)
		c := &campaign.Campaign{Profile: p, Plan: plan}
		stats, err := c.Run(context.Background(), campaign.NewResultStore())
		if err != nil {
			t.Fatal(err)
		}
		got := stats.EventsPerSecond()
		if useCPU {
			got = stats.EventsPerCPUSecond()
		}
		if got > measured {
			measured = got
		}
		t.Logf("attempt %d: %.0f %s (baseline %.0f, floor %.0f)", attempt+1, got, metric, baseline, floor)
		if measured >= floor {
			break // one clean attempt is enough; retry only below the floor
		}
	}
	if measured < floor {
		t.Fatalf("quick campaign throughput %.0f %s is >30%% below the committed baseline %.0f (floor %.0f); "+
			"if a deliberate trade-off, regenerate BENCH_quick.json with cmd/spequlos-bench",
			measured, metric, baseline, floor)
	}
}

// stressCell is the stress profile's baseline cell: 32 batches over a
// 2500-node 30-day churn, the sharded kernel's headline workload (batches
// are independent, so a baseline window is one barrier-free parallel
// region).
func stressCell(kernelShards int) campaign.Job {
	p := experiments.Stress()
	p.KernelShards = kernelShards
	return campaign.Job{Scenario: campaign.Scenario{
		Profile: p, Middleware: campaign.XWHEP, TraceName: "seti", BotClass: "SMALL",
	}}
}

// runStressCell executes one stress baseline cell and returns its
// wall-clock. The first call warms the shared trace cache, so callers
// should discard a warm-up run before timing.
func runStressCell(t *testing.T, kernelShards int) time.Duration {
	t.Helper()
	start := time.Now()
	e := campaign.Execute(stressCell(kernelShards))
	elapsed := time.Since(start)
	if !e.Result.Completed {
		t.Fatalf("stress cell (%d shards) did not complete: %+v", kernelShards, e.Result)
	}
	return elapsed
}

// TestShardedStressPerfFloor is the parallel-path perf floor: on a
// multi-core machine the sharded kernel must beat the serial (1-shard)
// execution of the same stress cell. Results are byte-identical either way
// (TestShardedKernelDeterminism); this test pins that the parallelism
// actually pays. Skipped with -short, under the race detector, and on
// single-core machines where there is no parallelism to measure.
func TestShardedStressPerfFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel perf floor skipped with -short")
	}
	if raceDetectorEnabled {
		t.Skip("parallel perf floor skipped under the race detector (2–20× slowdown)")
	}
	procs := runtime.GOMAXPROCS(0)
	if procs < 2 {
		t.Skipf("GOMAXPROCS=%d: no parallelism to measure", procs)
	}

	runStressCell(t, 1) // warm the trace cache off the clock

	// Three interleaved serial/parallel pairs, compared on their minima: a
	// neighbour's burst of load then lands on both sides instead of on
	// whichever side happened to run during it. The serial run of a pair
	// goes first so any remaining cache warming favors it.
	var serial, parallel time.Duration
	for pair := 0; pair < 3; pair++ {
		if d := runStressCell(t, 1); pair == 0 || d < serial {
			serial = d
		}
		if d := runStressCell(t, procs); pair == 0 || d < parallel {
			parallel = d
		}
	}
	t.Logf("stress cell: serial %v, %d-shard %v (speedup %.2fx)",
		serial, procs, parallel, serial.Seconds()/parallel.Seconds())
	if parallel >= serial {
		t.Fatalf("sharded kernel (%d shards, %v) is not faster than serial (%v) on the stress cell",
			procs, parallel, serial)
	}
}
