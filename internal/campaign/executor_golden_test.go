package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"spequlos/internal/core"
)

var updateExecutorGolden = flag.Bool("update-executor-golden", false, "rewrite testdata/executor_golden.json")

// goldenProfiles lists the cell kinds the executor distinguishes by its two
// axes — kernel (serial / sharded) × shape (single BoT / multi-batch; a
// single BoT is always serial) — plus the horizon-retry case of Execute.
// KernelShards is pinned to 2 in the sharded profile so the per-shard event
// counters are deterministic on any machine.
func goldenProfiles() []Profile {
	return []Profile{
		{ // serial kernel, single BoT: the paper's shape
			Name: "g-single", BotScale: 0.05, Offsets: 1, PoolCap: 160,
			HorizonDays: 6, CreditFraction: 0.10,
		},
		{ // serial kernel, tiered tenants contending for a fleet cap of 3
			Name: "g-tiered", BotScale: 0.02, Offsets: 1, PoolCap: 160,
			HorizonDays: 6, CreditFraction: 0.10,
			Batches: 8, SubmitSpread: 1800, Tiered: true, FleetCap: 3,
		},
		{ // serial kernel, untiered tenants all submitting at t=0
			Name: "g-wave", BotScale: 0.02, Offsets: 1, PoolCap: 160,
			HorizonDays: 6, CreditFraction: 0.10,
			Batches: 5, SubmitSpread: 0,
		},
		{ // sharded kernel, one server per tiered tenant
			Name: "g-stiered", BotScale: 0.02, Offsets: 1, PoolCap: 240,
			HorizonDays: 10, CreditFraction: 0.10,
			Batches: 10, SubmitSpread: 1800, Tiered: true, FleetCap: 2,
			ShardedKernel: true, KernelShards: 2,
		},
		{ // the horizon is too short for the first attempt (and for some
			// cells every attempt), so Execute's doubling retry loop runs and
			// the incomplete shape of a result is pinned as well
			Name: "g-short", BotScale: 0.02, Offsets: 1, PoolCap: 120,
			HorizonDays: 0.02, CreditFraction: 0.10,
		},
	}
}

// goldenJobs enumerates the parity matrix: every profile × middleware ×
// {baseline, five strategies covering the three deployments, both sizings
// and all three trigger families}, plus one variant job per profile. The
// single-BoT shapes record the Fig 1 series too. Twelve cells of the
// standard profile follow (g5kgre × BIG × middleware × {baseline, the three
// Cloud Duplication strategies}).
func goldenJobs(t *testing.T) []Job {
	t.Helper()
	var jobs []Job
	for _, p := range goldenProfiles() {
		keepSeries := p.Batches <= 1
		for _, mw := range AllMiddlewares() {
			sc := Scenario{Profile: p, Middleware: mw, TraceName: "seti", BotClass: "SMALL"}
			jobs = append(jobs, strategyJobs(t, sc, keepSeries, "9C-C-R", "9A-G-D", "D-G-F", "9C-G-F", "9C-C-D")...)
		}
		frac := 0.25
		cfg := core.Config{Strategy: core.DefaultStrategy(), MonitorPeriod: 300}
		jobs = append(jobs, Job{
			Scenario: Scenario{Profile: p, Middleware: XWHEP, TraceName: "g5klyo", BotClass: "RANDOM"},
			Variant:  "period=300s,cf=0.25", Config: &cfg, CreditFraction: &frac,
			KeepSeries: keepSeries,
		})
	}
	// The standard profile on a homogeneous Grid'5000 trace with a BIG BoT:
	// here Cloud Duplication's mirror completes tasks on the cloud server in
	// the very instant they are submitted to it, a path no seti/SMALL cell
	// above reaches. Offset 2 holds the cell the arrive guard moved furthest
	// (XWHEP 9A-C-D, 1683 s → 1028 s).
	for _, mw := range AllMiddlewares() {
		sc := Scenario{Profile: Standard(), Middleware: mw, TraceName: "g5kgre", BotClass: "BIG", Offset: 2}
		jobs = append(jobs, strategyJobs(t, sc, false, "9A-C-D", "9A-G-D", "9C-C-D")...)
	}
	return jobs
}

// strategyJobs returns the baseline job of the scenario followed by one job
// per strategy label.
func strategyJobs(t *testing.T, sc Scenario, keepSeries bool, labels ...string) []Job {
	t.Helper()
	jobs := []Job{{Scenario: sc, KeepSeries: keepSeries}}
	for _, label := range labels {
		st, err := core.StrategyByLabel(label)
		if err != nil {
			t.Fatal(err)
		}
		scs := sc
		scs.Strategy = &st
		jobs = append(jobs, Job{Scenario: scs, KeepSeries: keepSeries})
	}
	return jobs
}

// TestExecutorGolden is the parity guard of the cell executor: the digest of
// every entry of the matrix above — all three kernel × shape combinations,
// three middleware, baseline and strategy and variant jobs, complete and
// incomplete cells — must equal the one recorded in
// testdata/executor_golden.json. That file was produced by the separate
// executors (executeOnce, executeMulti, executeSharded) at the commit before
// they were collapsed into one, so passing means the single executeOnce
// reproduces each of them byte for byte. The twelve standard-profile keys
// were appended later, right after the servers stopped queueing a task
// completed before its arrival (four of them differ from what the code
// before that fix produces); they pin the middleware models at a scale and
// on a path the 95 older keys do not reach. The 19 keys of the retired
// partitioned single-BoT model (g-ssingle) were deleted from the file by
// hand, without a re-record: the 107 that remain are the digests recorded
// back then — except the three g-stiered baselines (empty strategy field),
// replaced by hand when a sharded baseline began to unbind a batch's trace
// partition at its completion: their entries moved in Events and
// ShardEvents only (65 443 → 3 220, 64 984 → 2 233, 63 413 → 2 610 for
// BOINC, CONDOR, XWHEP), every completion time stayed.
//
// Regenerate only deliberately, when the MODEL is meant to move:
// go test ./internal/campaign -run ExecutorGolden -update-executor-golden
func TestExecutorGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("executor parity matrix is not -short")
	}
	jobs := goldenJobs(t)
	got := make(map[string]string, len(jobs))
	completed, incomplete, retried := 0, 0, 0
	for _, j := range jobs {
		e := Execute(j)
		e.Result.BarrierStallSec = 0 // wall clock
		raw, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		if _, dup := got[e.Key]; dup {
			t.Fatalf("two golden jobs share the key %s", e.Key)
		}
		sum := sha256.Sum256(raw)
		got[e.Key] = hex.EncodeToString(sum[:])
		if e.Result.Completed {
			completed++
		} else {
			incomplete++
		}
		if j.Scenario.Profile.Name == "g-short" && e.Result.Completed {
			retried++ // completed only because a retry doubled the horizon
		}
	}
	if len(got) != 107 {
		t.Fatalf("golden matrix has %d cells, want the 107 recorded ones", len(got))
	}
	if incomplete == 0 || retried == 0 || completed <= incomplete {
		t.Fatalf("matrix lost a case: %d completed (%d after a horizon retry), %d incomplete",
			completed, retried, incomplete)
	}

	path := filepath.Join("testdata", "executor_golden.json")
	if *updateExecutorGolden {
		raw, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record with -update-executor-golden)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden holds %d cells, the matrix has %d", len(want), len(got))
	}
	for key, digest := range got {
		if want[key] != digest {
			t.Errorf("entry drifted from the recorded executor:\n key  %s\n got  %s\n want %s", key, digest, want[key])
		}
	}
}
