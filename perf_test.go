// Perf floor: the quick campaign must not regress more than 30% below the
// committed BENCH_quick.json baseline. The comparison uses events per CPU
// second when the baseline records it (robust to co-scheduled load);
// `go test -short` skips the check.
package spequlos

import (
	"context"
	"encoding/json"
	"os"
	"testing"

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
