package main

import "sort"

// metricSpec names one metric of the benchmark. BENCHMARK.json at the
// repository root mirrors the name/unit/better/bound columns (the test in
// this directory fails when they drift); layer and moves exist only here
// because the contract fixes BENCHMARK.json's keys.
type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the base's median it may worsen by
	// Micro marks a per-layer unit cost that does not depend on the
	// workload; it is measured in every traced run. The other per-layer
	// metrics are measured where the workload exercises the layer and read
	// 0 elsewhere.
	Micro bool
	// Exact marks a count that repeats bit-for-bit for the same seed.
	Exact bool
	// Moves says which end-to-end metric, on which workload, the layer
	// metric is expected to move.
	Moves string
}

// endToEnd is what a user of the system sees. Every workload reports every
// one of them; what one unit of work is differs per workload and is stated
// in the workload's description:
//
//	simulation workloads  one repetition: plan → campaign → derive → store save
//	svc_poll              100 000 successful requests from nproc closed-loop clients
//	svc_lifecycle         one wave: 200 orders, then ticks until all are finalized
//
// The bounds are as wide as the contract allows for the two timings: on the
// 2-vCPU box this was written on, identical work varies by 10% within
// seconds, and the spread between ten runs reached 17% (README.md has the
// table).
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20},
}

// perLayer is the ledger: one or more numbers per module, collected in the
// traced pass from this directory only.
var perLayer = []metricSpec{
	// trace / stats
	{Name: "trace.generate_s", Unit: "s", Better: "lower", Moves: "wall_s, cpu_s on paperscale (~29%) and matrix (~9%); none on tenants, churn, svc"},
	{Name: "trace.generated_mb", Unit: "MB", Better: "lower", Exact: true, Moves: "peak_rss_mb on paperscale"},
	{Name: "trace.measure_stats_s", Unit: "s", Better: "lower", Micro: true, Moves: "wall_s on matrix, paperscale (table2)"},
	{Name: "stats.sample_ns", Unit: "ns", Better: "lower", Micro: true, Moves: "trace.generate_s"},
	// sim
	{Name: "sim.event_ns", Unit: "ns", Better: "lower", Micro: true, Moves: "cpu_s on churn first, matrix second"},
	{Name: "sim.events", Unit: "count", Better: "lower", Exact: true, Moves: "cpu_s on churn, matrix (fewer useless events is a gain)"},
	{Name: "sim.cpu_ns_per_event", Unit: "ns", Better: "lower", Moves: "cpu_s on churn, matrix"},
	{Name: "sim.barriers", Unit: "count", Better: "lower", Exact: true, Moves: "wall_s on churn, paperscale"},
	{Name: "sim.barrier_stall_s", Unit: "s", Better: "lower", Moves: "wall_s on churn, paperscale only"},
	{Name: "sim.shard_skew", Unit: "ratio", Better: "lower", Exact: true, Moves: "wall_s on churn, paperscale"},
	{Name: "sim.shard_speedup_x", Unit: "x", Better: "higher", Moves: "wall_s on churn, paperscale only"},
	{Name: "sim.crowd2k_shard_speedup_x", Unit: "x", Better: "higher", Moves: "diagnostic: canonical sharded crowd2k baselines, reported on tenants"},
	// middleware
	{Name: "middleware.boinc_cell_s", Unit: "s", Better: "lower", Moves: "cpu_s on churn, matrix"},
	{Name: "middleware.xwhep_cell_s", Unit: "s", Better: "lower", Moves: "cpu_s on churn, matrix"},
	{Name: "middleware.condor_cell_s", Unit: "s", Better: "lower", Moves: "cpu_s on churn, tenants"},
	{Name: "middleware.baseline_events_per_s", Unit: "1/s", Better: "higher", Moves: "cpu_s on churn, matrix"},
	// core
	{Name: "core.strategy_cell_s", Unit: "s", Better: "lower", Moves: "wall_s, cpu_s on tenants; none on churn"},
	{Name: "core.strategy_over_baseline_x", Unit: "x", Better: "lower", Moves: "wall_s on tenants (~15 there, ~1 on matrix, <0.1 on churn)"},
	{Name: "core.credit_cycle_ns", Unit: "ns", Better: "lower", Micro: true, Moves: "cpu_s on tenants"},
	{Name: "core.admit_us", Unit: "us", Better: "lower", Micro: true, Moves: "cpu_s on tenants"},
	{Name: "core.predict_ns", Unit: "ns", Better: "lower", Micro: true, Moves: "cpu_s on tenants"},
	{Name: "core.batches_completed", Unit: "count", Better: "higher", Exact: true, Moves: "simulated statistic: must not move under a speed-only change"},
	{Name: "core.batches_triggered", Unit: "count", Better: "higher", Exact: true, Moves: "simulated statistic: must not move under a speed-only change"},
	{Name: "core.instances_started", Unit: "count", Better: "lower", Exact: true, Moves: "simulated statistic: must not move under a speed-only change"},
	{Name: "core.credits_billed", Unit: "credits", Better: "lower", Exact: true, Moves: "simulated statistic: must not move under a speed-only change"},
	{Name: "core.median_speedup_x", Unit: "x", Better: "higher", Exact: true, Moves: "simulated statistic: must not move under a speed-only change"},
	// campaign
	{Name: "campaign.jobs", Unit: "count", Better: "lower", Exact: true, Moves: "wall_s on matrix"},
	{Name: "campaign.plan_s", Unit: "s", Better: "lower", Moves: "wall_s on matrix (2052 jobs)"},
	{Name: "campaign.run_s", Unit: "s", Better: "lower", Moves: "wall_s on every simulation workload"},
	{Name: "campaign.resume_s", Unit: "s", Better: "lower", Moves: "none end to end (second Run on the filled store)"},
	{Name: "campaign.store_save_s", Unit: "s", Better: "lower", Moves: "wall_s on matrix (1.8 MB store)"},
	{Name: "campaign.store_load_s", Unit: "s", Better: "lower", Moves: "none end to end (resume path)"},
	{Name: "campaign.store_mb", Unit: "MB", Better: "lower", Moves: "campaign.store_save_s (not exact: sharded cells store their barrier stall time)"},
	{Name: "campaign.trace_cache_resident_mb", Unit: "MB", Better: "lower", Moves: "peak_rss_mb on paperscale"},
	{Name: "campaign.crowd2k_sharded_done_ratio", Unit: "ratio", Better: "higher", Exact: true, Moves: "diagnostic: canonical sharded crowd2k baselines, reported on tenants"},
	// experiments
	{Name: "experiments.derive_s", Unit: "s", Better: "lower", Moves: "wall_s on matrix (~9%), paperscale (~13%); zero on churn, tenants"},
	{Name: "experiments.table2_s", Unit: "s", Better: "lower", Moves: "wall_s on matrix, paperscale"},
	{Name: "experiments.table5_s", Unit: "s", Better: "lower", Moves: "wall_s on matrix, paperscale"},
	// service
	{Name: "service.loopback_rtt_us", Unit: "us", Better: "lower", Micro: true, Moves: "wall_s on svc_poll and svc_lifecycle"},
	{Name: "service.gate_ns", Unit: "ns", Better: "lower", Micro: true, Moves: "wall_s, cpu_s on svc_poll"},
	{Name: "service.info_sample_handler_us", Unit: "us", Better: "lower", Micro: true, Moves: "wall_s on svc_lifecycle"},
	{Name: "service.credit_bill_handler_us", Unit: "us", Better: "lower", Micro: true, Moves: "wall_s on svc_lifecycle"},
	{Name: "service.status_us", Unit: "us", Better: "lower", Moves: "wall_s on svc_poll (closed loop: latency is throughput)"},
	{Name: "service.credit_account_us", Unit: "us", Better: "lower", Moves: "wall_s on svc_poll"},
	{Name: "service.progress_batch_us", Unit: "us", Better: "lower", Moves: "wall_s on svc_poll"},
	{Name: "service.poll_p99_ms", Unit: "ms", Better: "lower", Moves: "the poll tail a user sees; too noisy on a shared 2-vCPU box to bound"},
	{Name: "service.order_us", Unit: "us", Better: "lower", Moves: "wall_s on svc_lifecycle (200 orders per wave)"},
	{Name: "service.order_p95_ms", Unit: "ms", Better: "lower", Moves: "the order tail a user sees"},
	{Name: "service.req_per_s", Unit: "1/s", Better: "higher", Moves: "the reciprocal view of wall_s on svc_poll (2xx only)"},
	{Name: "service.batches_per_s", Unit: "1/s", Better: "higher", Moves: "the reciprocal view of wall_s on svc_lifecycle"},
	{Name: "service.tick_p50_ms", Unit: "ms", Better: "lower", Moves: "wall_s on svc_lifecycle (26 ticks per wave)"},
	{Name: "service.tick_p95_ms", Unit: "ms", Better: "lower", Moves: "wall_s on svc_lifecycle"},
	{Name: "service.tick_us_per_batch", Unit: "us", Better: "lower", Moves: "wall_s on svc_lifecycle"},
	{Name: "service.gate_requests_per_tick", Unit: "count", Better: "lower", Exact: true, Moves: "service.tick_p50_ms, wall_s on svc_lifecycle; none on svc_poll"},
	{Name: "service.status_bytes", Unit: "bytes", Better: "lower", Exact: true, Moves: "wall_s on svc_poll"},
	{Name: "service.throttled", Unit: "count", Better: "lower", Exact: true, Moves: "must be 0"},
	{Name: "service.unauthorized", Unit: "count", Better: "lower", Exact: true, Moves: "must be 0"},
	// emul / cloud
	{Name: "emul.progress_batch_us", Unit: "us", Better: "lower", Micro: true, Moves: "service.tick_p50_ms on svc_lifecycle"},
	{Name: "emul.gateway_requests", Unit: "count", Better: "lower", Exact: true, Moves: "service.tick_p50_ms on svc_lifecycle (one per tick)"},
	{Name: "cloud.launch_cycle_ns", Unit: "ns", Better: "lower", Micro: true, Moves: "service.tick_p50_ms on svc_lifecycle"},
	// the traced pass itself
	{Name: "bench.traced_wall_s", Unit: "s", Better: "lower", Moves: "one traced unit of work in reference seconds; minus the untraced units' median, the tracing overhead"},
	{Name: "bench.calibration_ms", Unit: "ms", Better: "lower", Micro: true, Moves: "the machine's speed during the traced run: every timing above scales with it (reference 100 ms)"},
	{Name: "bench.attributed_ratio", Unit: "ratio", Better: "higher", Moves: "share of the traced unit of work covered by layer spans"},
}

// metricValue is one measured number as the contract's result line prints it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit builds the result's metric map: every spec gets a value, 0 when the
// workload did not produce one.
func emit(specs []metricSpec, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		out[s.Name] = metricValue{Value: values[s.Name], Unit: s.Unit}
	}
	return out
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs (mean of the two middle values for an even count); 0 if empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// fasterHalf reduces a run's per-unit times (one per repetition, wave or
// window) to the value reported: the mean of the faster half (the single
// fastest of up to three). What disturbs a unit on a shared machine only
// ever slows it, often for seconds at a time, so the faster half is the
// part of the run the machine disturbed least; over sets of ten runs it
// spread a quarter to a half less than the median did. The samples
// themselves go to the result file.
func fasterHalf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)[:max(len(xs)/2, 1)]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}
