package campaign

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"spequlos/internal/core"
)

// miniSharded returns a small sharded-kernel cell profile sized for tests.
func miniSharded(kernelShards int) Profile {
	return Profile{
		Name: "ministress", BotScale: 0.01, Offsets: 1, PoolCap: 240,
		HorizonDays: 10, CreditFraction: 0.10,
		Batches: 8, SubmitSpread: 1800, ShardedKernel: true,
		KernelShards: kernelShards,
	}
}

// normalizeSharded strips the execution-only counters (shard layout, wall
// clock) so results can be compared across kernel shard counts.
func normalizeSharded(r Result) Result {
	r.KernelShards = 0
	r.Barriers = 0
	r.ShardEvents = nil
	r.BarrierStallSec = 0
	return r
}

func runMini(t *testing.T, shards int, withStrategy bool) Result {
	t.Helper()
	sc := Scenario{
		Profile: miniSharded(shards), Middleware: XWHEP, TraceName: "seti",
		BotClass: "SMALL",
	}
	if withStrategy {
		st := core.DefaultStrategy()
		sc.Strategy = &st
	}
	e := Execute(Job{Scenario: sc})
	if e.Result.KernelShards != shards && !(shards > 8) {
		t.Fatalf("cell ran with %d kernel shards, want %d", e.Result.KernelShards, shards)
	}
	return e.Result
}

// TestShardedKernelDeterminism is the shard-count determinism guard: the
// same cell must produce byte-identical results (JSON-compared, execution
// counters excluded) at 1, 2, 4 and 8 shards, with and without the QoS
// service. The 1-shard run is the serial reference.
func TestShardedKernelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded determinism table is not -short")
	}
	for _, withStrategy := range []bool{false, true} {
		name := "baseline"
		if withStrategy {
			name = "strategy"
		}
		t.Run(name, func(t *testing.T) {
			ref := runMini(t, 1, withStrategy)
			if !ref.Completed {
				t.Fatalf("reference (1-shard) cell did not complete: %+v", ref)
			}
			refJSON, err := json.Marshal(normalizeSharded(ref))
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{2, 4, 8} {
				got := runMini(t, shards, withStrategy)
				gotJSON, err := json.Marshal(normalizeSharded(got))
				if err != nil {
					t.Fatal(err)
				}
				if string(gotJSON) != string(refJSON) {
					t.Fatalf("result diverged at %d shards (Events %d at 1 shard, %d at %d):\n 1: %s\n%2d: %s",
						shards, ref.Events, got.Events, shards, refJSON, shards, gotJSON)
				}
			}
		})
	}
}

// miniBaseline is the miniSharded baseline cell at the given horizon and
// kernel shard count.
func miniBaseline(horizonDays float64, shards int) Job {
	p := miniSharded(shards)
	p.HorizonDays = horizonDays
	return Job{Scenario: Scenario{Profile: p, Middleware: XWHEP, TraceName: "seti", BotClass: "SMALL"}}
}

// baselineAt runs miniBaseline once, without Execute's retry.
func baselineAt(horizonDays float64, shards int) Result {
	return executeOnce(miniBaseline(horizonDays, shards), horizonDays*86400).Result
}

// TestShardedBaselineStopsAtCompletion pins that a sharded baseline stops
// paying for churn nobody reads: each batch's trace partition is unbound at
// the batch's completion, so the work done does not grow with the horizon
// (it used to: 62 363 events at 10 days, 121 867 at 20, same completions),
// and it is the same at any kernel shard count.
func TestShardedBaselineStopsAtCompletion(t *testing.T) {
	ref := baselineAt(10, 1)
	if !ref.Completed || ref.Barriers != 1 {
		t.Fatalf("10-day baseline: completed %v in %d barrier windows, want one window to completion", ref.Completed, ref.Barriers)
	}
	for _, c := range []struct {
		horizonDays float64
		shards      int
	}{{20, 1}, {10, 2}, {10, 4}, {10, 8}} {
		got := baselineAt(c.horizonDays, c.shards)
		if got.Events != ref.Events {
			t.Errorf("%v-day horizon, %d shards: %d events, want the %d of 10 days on 1 shard",
				c.horizonDays, c.shards, got.Events, ref.Events)
		}
		for k, b := range got.Batches {
			if !b.Completed || b.CompletionTime != ref.Batches[k].CompletionTime {
				t.Errorf("%v-day horizon, %d shards: batch %s completed %v after %v s, want %v s",
					c.horizonDays, c.shards, b.BatchID, b.Completed, b.CompletionTime, ref.Batches[k].CompletionTime)
			}
		}
	}

	// A horizon that ends mid-run: the finished batches' partitions are
	// unbound, the others churn on to the horizon, and the cell reports
	// incomplete so that Execute retries it on a doubled horizon.
	const shortDays = 0.1
	short := baselineAt(shortDays, 2)
	done := 0
	for _, b := range short.Batches {
		if b.Completed {
			done++
		}
	}
	if short.Completed || short.CompletionTime != 0 || done == 0 || done == len(short.Batches) {
		t.Fatalf("%v-day horizon: completed %v (%d of %d batches), makespan %v; want an incomplete cell with some batches done",
			shortDays, short.Completed, done, len(short.Batches), short.CompletionTime)
	}
	retried := Execute(miniBaseline(shortDays, 2)).Result
	if !retried.Completed || retried.CompletionTime != ref.CompletionTime {
		t.Fatalf("Execute from a %v-day horizon: completed %v, makespan %v; want the retry to reach the 10-day makespan %v",
			shortDays, retried.Completed, retried.CompletionTime, ref.CompletionTime)
	}
}

func TestShardedKernelStatsRecorded(t *testing.T) {
	res := runMini(t, 2, true)
	if !res.Completed {
		t.Fatalf("cell did not complete")
	}
	if res.Barriers == 0 {
		t.Fatal("no barriers recorded")
	}
	if len(res.ShardEvents) != 2 {
		t.Fatalf("ShardEvents = %v, want 2 shards", res.ShardEvents)
	}
	var sum uint64
	for _, c := range res.ShardEvents {
		sum += c
	}
	if sum == 0 || sum > res.Events {
		t.Fatalf("shard events %d inconsistent with total %d", sum, res.Events)
	}
	// The service must have engaged on its control engine: a strategy cell
	// with credits should trigger cloud support for at least one batch.
	if res.Instances == 0 {
		t.Fatal("strategy cell started no cloud instances")
	}
}

// TestUseShardedKernelRouting pins the model-routing rule: routing reads
// the profile alone (Profile.Sharded cannot see the strategy, so no
// strategy family can fall back to the serial kernel); ShardedKernel routes
// a multi-batch cell, tiered or not, onto the sharded kernel; nothing
// without the flag ever routes there; and a single BoT is one server on the
// serial engine whatever the flag says, so forcing it on changes neither
// the key nor the result.
func TestUseShardedKernelRouting(t *testing.T) {
	p := miniSharded(2)
	base := Job{Scenario: Scenario{Profile: p, Middleware: XWHEP, TraceName: "seti", BotClass: "SMALL"}}
	if !base.Scenario.Profile.Sharded() {
		t.Fatal("plain sharded-kernel cell should use the sharded kernel")
	}
	tiered := base
	tiered.Scenario.Profile.Tiered = true
	if !tiered.Scenario.Profile.Sharded() {
		t.Fatal("tiered cell must run on the sharded kernel, not fall back")
	}
	plain := base
	plain.Scenario.Profile.ShardedKernel = false
	if plain.Scenario.Profile.Sharded() {
		t.Fatal("profile without ShardedKernel must not route to the sharded kernel")
	}

	st := core.DefaultStrategy()
	full := Job{Scenario: Scenario{Profile: Full(), Middleware: XWHEP, TraceName: "seti", BotClass: "SMALL", Strategy: &st}}
	forced := full
	forced.Scenario.Profile.ShardedKernel = true
	forced.Scenario.Profile.KernelShards = 2
	if full.Scenario.Profile.Sharded() || forced.Scenario.Profile.Sharded() {
		t.Fatal("a single-BoT cell must run on the serial engine")
	}
	if full.Key() != forced.Key() {
		t.Fatalf("ShardedKernel leaked into a single-BoT job key:\n%s\n%s", full.Key(), forced.Key())
	}
	want, got := Execute(full).Result, Execute(forced).Result
	if !want.Completed || want.Instances == 0 {
		t.Fatalf("full cell did not complete with cloud support: %+v", want)
	}
	if want.KernelShards != 0 || want.Barriers != 0 || got.KernelShards != 0 || got.Barriers != 0 {
		t.Fatalf("single-BoT cell recorded sharded-kernel counters: %+v / %+v", want, got)
	}
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(got)
	if string(wantJSON) != string(gotJSON) {
		t.Fatalf("ShardedKernel changed a single-BoT result:\n off: %s\n on:  %s", wantJSON, gotJSON)
	}
}

// miniTiered returns a crowd2k-subset cell profile sized for tests: ten
// batches split 2/3/5 across the enterprise/premium/free tiers, contending
// for a two-batch cloud fleet cap.
func miniTiered(kernelShards int) Profile {
	return Profile{
		Name: "minicrowd2k", BotScale: 0.01, Offsets: 1, PoolCap: 240,
		HorizonDays: 10, CreditFraction: 0.10,
		Batches: 10, SubmitSpread: 1800, Tiered: true, FleetCap: 2,
		ShardedKernel: true, KernelShards: kernelShards,
	}
}

// runShardedDeterminism executes the scenario at 1, 2, 4 and 8 kernel
// shards and fails on any byte difference (execution counters excluded);
// the 1-shard run is the serial reference, so this doubles as the
// sharded-vs-serial conformance check for the cell's couplings.
func runShardedDeterminism(t *testing.T, mk func(shards int) Scenario) Result {
	t.Helper()
	ref := Execute(Job{Scenario: mk(1)}).Result
	if !ref.Completed {
		t.Fatalf("reference (1-shard) cell did not complete: %+v", ref)
	}
	refJSON, err := json.Marshal(normalizeSharded(ref))
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 4, 8} {
		got := Execute(Job{Scenario: mk(shards)}).Result
		gotJSON, err := json.Marshal(normalizeSharded(got))
		if err != nil {
			t.Fatal(err)
		}
		if string(gotJSON) != string(refJSON) {
			t.Fatalf("result diverged at %d shards:\n 1: %s\n%2d: %s",
				shards, refJSON, shards, gotJSON)
		}
	}
	return ref
}

// TestShardedCloudDupDeterminism pins the result mirror between each batch's
// primary and its cloud-hosted server, both on the batch's shard engine: a
// CloudDuplication cell is byte-identical at 1/2/4/8 shards, and the mirror
// actually engaged (cloud instances started).
func TestShardedCloudDupDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded determinism table is not -short")
	}
	st := core.Strategy{Trigger: core.CompletionThreshold{Frac: 0.5}, Sizing: core.Conservative{}, Deploy: core.CloudDuplication}
	ref := runShardedDeterminism(t, func(shards int) Scenario {
		return Scenario{
			Profile: miniSharded(shards), Middleware: XWHEP, TraceName: "seti",
			BotClass: "SMALL", Strategy: &st,
		}
	})
	if ref.Instances == 0 {
		t.Fatal("CloudDuplication cell started no cloud instances — the mirror was never exercised")
	}
}

// TestShardedTieredDeterminism pins tier arbitration as a control-engine
// reduction: a contended tiered cell (crowd2k subset) is byte-identical at
// 1/2/4/8 shards.
func TestShardedTieredDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded determinism table is not -short")
	}
	st := core.DefaultStrategy()
	ref := runShardedDeterminism(t, func(shards int) Scenario {
		return Scenario{
			Profile: miniTiered(shards), Middleware: XWHEP, TraceName: "seti",
			BotClass: "SMALL", Strategy: &st,
		}
	})
	if ref.Instances == 0 {
		t.Fatal("tiered cell started no cloud instances — arbitration was never exercised")
	}
}

// TestShardedKernelInJobKey pins that the model flag keys a multi-batch job
// while the execution shard count does not, and that a single-BoT key keeps
// the historical single-batch shape whatever the flag says.
func TestShardedKernelInJobKey(t *testing.T) {
	j1 := Job{Scenario: Scenario{Profile: miniSharded(1), Middleware: XWHEP, TraceName: "seti", BotClass: "SMALL"}}
	j4 := Job{Scenario: Scenario{Profile: miniSharded(4), Middleware: XWHEP, TraceName: "seti", BotClass: "SMALL"}}
	if j1.Key() != j4.Key() {
		t.Fatalf("KernelShards leaked into the job key:\n%s\n%s", j1.Key(), j4.Key())
	}
	if want := "ministress@bs0.01,pc240,h10,cf0.1,nb8,ss1800,skernel|XWHEP|seti|SMALL|0||" + fmt.Sprint(j1.Scenario.Seed()); j1.Key() != want {
		t.Fatalf("multi-batch sharded key changed:\n got  %s\n want %s", j1.Key(), want)
	}
	serial := j1
	serial.Scenario.Profile.ShardedKernel = false
	if serial.Key() == j1.Key() {
		t.Fatal("sharded and single-server models share a job key")
	}

	// A single BoT has no sub-batch to partition by: neither the flag nor
	// the shard count reaches its key, and the full profile keys in the
	// historical single-batch shape.
	single := Job{Scenario: Scenario{Profile: Full(), Middleware: XWHEP, TraceName: "seti", BotClass: "SMALL"}}
	if want := "full@bs1,pc2000,h15,cf0.1|XWHEP|seti|SMALL|0||" + fmt.Sprint(single.Scenario.Seed()); single.Key() != want {
		t.Fatalf("full-profile key left the single-batch shape:\n got  %s\n want %s", single.Key(), want)
	}
	single8 := single
	single8.Scenario.Profile.ShardedKernel = true
	single8.Scenario.Profile.KernelShards = 8
	if single.Key() != single8.Key() {
		t.Fatalf("ShardedKernel or KernelShards leaked into the single-BoT job key:\n%s\n%s", single.Key(), single8.Key())
	}

	// Model routing is explicitly a pure function of the key: a job runs on
	// the sharded kernel exactly when its key carries the skernel marker,
	// for every strategy family — no strategy- or deployment-dependent
	// fallback can exist without breaking this equivalence.
	dupSt := core.Strategy{Trigger: core.CompletionThreshold{Frac: 0.5}, Sizing: core.Conservative{}, Deploy: core.CloudDuplication}
	dup := j1
	dup.Scenario.Strategy = &dupSt
	tiered := j1
	tiered.Scenario.Profile.Tiered = true
	for _, j := range []Job{j1, j4, serial, single, single8, dup, tiered} {
		if j.Scenario.Profile.Sharded() != strings.Contains(j.Key(), ",skernel") {
			t.Fatalf("model routing is not a pure function of the job key: %s", j.Key())
		}
	}
}

// TestStressProfileSharded pins the stress profile's PR 7 shape.
func TestStressProfileSharded(t *testing.T) {
	p := Stress()
	if !p.ShardedKernel || p.Batches != 32 {
		t.Fatalf("stress profile = %+v, want ShardedKernel with 32 batches", p)
	}
}
