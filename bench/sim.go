package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"spequlos/internal/campaign"
	"spequlos/internal/core"
	"spequlos/internal/experiments"
	"spequlos/internal/sim"
)

// simWorkload is one simulation campaign, run through the same entry points
// the spequlos-bench CLI uses. Parallelism and KernelShards stay at the
// program's defaults (GOMAXPROCS), because that is what its users get.
type simWorkload struct {
	name string
	why  string // the reason BENCHMARK.json records
	// profile returns the campaign profile; tiny is the smoke-test size.
	profile func(tiny bool) campaign.Profile
	// spec scopes the paper matrix for BuildArtifacts; nil means the
	// workload is a crowd campaign (BuildCrowd).
	spec func(tiny bool) experiments.MatrixSpec
	// shardDigest: the cells run on the sharded kernel, so the traced pass
	// also proves results are identical at 1 and at nproc kernel shards.
	shardDigest bool
	// minReps is how many timed repetitions a run takes at least.
	minReps int
}

var simWorkloads = []simWorkload{
	{
		name: "matrix",
		why:  "the full paper matrix a researcher runs (standard profile, 2052 single-BoT cells, every strategy): trace generation, kernel, middleware dispatch and artifact derivation all matter; unit = one campaign",
		profile: func(tiny bool) campaign.Profile {
			if tiny {
				return experiments.Quick()
			}
			return experiments.Standard()
		},
		spec: func(tiny bool) experiments.MatrixSpec {
			if tiny {
				return experiments.MatrixSpec{
					Middlewares: []string{"BOINC"}, Traces: []string{"seti"}, Bots: []string{"SMALL"},
					Strategies: []core.Strategy{core.DefaultStrategy()},
				}
			}
			return experiments.MatrixSpec{Strategies: core.AllStrategies()}
		},
		minReps: 3,
	},
	{
		name: "churn",
		why:  "kernel-bound: 6 sharded cells of 32 BoTs on 2500 churning nodes over 30 days; the service and derivation do almost nothing; unit = one campaign",
		profile: func(tiny bool) campaign.Profile {
			p := experiments.Stress()
			if tiny {
				p.PoolCap, p.HorizonDays, p.Batches = 250, 6, 4
			}
			return p
		},
		shardDigest: true,
		minReps:     5,
	},
	{
		name: "tenants",
		why:  "monitor-bound: 6 cells of 1000 tiered batches under a 60-batch fleet cap on the serial kernel; most of the time goes to the SpeQuloS tick, credit ledger and tier admission; unit = one campaign",
		profile: func(tiny bool) campaign.Profile {
			// Crowd2K on the serial kernel, at half its batch count and
			// fleet cap: a 2000-batch campaign costs 2-4 s depending on the
			// seed, so a run fits five and ten seeds spread 20-36%; halving
			// the batches quarters the cost and a run averages ~19 inputs.
			p := experiments.Crowd2K()
			p.ShardedKernel = false
			p.Batches, p.FleetCap = 1000, 60
			if tiny {
				p.Batches, p.FleetCap, p.PoolCap = 20, 4, 100
			}
			return p
		},
		minReps: 3,
	},
	{
		name: "paperscale",
		why:  "paper-scale traces (2000 nodes, 15 days): trace generation ~29% of CPU, partitioned sharded cells, the memory-sensitive case for the trace cache; unit = one 32-cell campaign",
		profile: func(tiny bool) campaign.Profile {
			p := experiments.Full()
			p.Offsets = 2
			if tiny {
				p.Offsets, p.PoolCap, p.BotScale, p.HorizonDays = 1, 250, 0.04, 6
			}
			return p
		},
		spec: func(tiny bool) experiments.MatrixSpec {
			spec := experiments.MatrixSpec{
				Middlewares: []string{"BOINC", "XWHEP"}, Traces: []string{"seti", "g5klyo"},
				Bots: []string{"SMALL", "BIG"}, Strategies: []core.Strategy{core.DefaultStrategy()},
			}
			if tiny {
				spec.Middlewares, spec.Bots = []string{"XWHEP"}, []string{"SMALL"}
			}
			return spec
		},
		shardDigest: true,
		minReps:     5,
	},
}

// repName is the public route to a seed: Scenario.Seed hashes the profile
// name, so every repetition simulates fresh traces and BoTs.
func repName(workload string, seed int64, r int) string {
	return fmt.Sprintf("bench-%s-s%d-r%d", workload, seed, r)
}

// named returns the workload's profile carrying the repetition's name.
func (w simWorkload) named(tiny bool, name string) campaign.Profile {
	p := w.profile(tiny)
	p.Name = name
	return p
}

// options builds the artifact options of one repetition. Table 2 and 5 are
// independent simulations seeded here, so they follow the repetition too.
func (w simWorkload) options(tiny bool, p campaign.Profile, store *campaign.ResultStore) experiments.ArtifactOptions {
	opts := experiments.ArtifactOptions{Store: store, StreamMatrix: true}
	if w.spec != nil {
		opts.Spec = w.spec(tiny)
		opts.Table2Seed = sim.SeedFrom(p.Name)
		opts.Table5Seed = opts.Table2Seed
	}
	return opts
}

// plan returns the repetition's jobs in dispatch order.
func (w simWorkload) plan(tiny bool, p campaign.Profile) *campaign.Plan {
	if w.spec == nil {
		return experiments.PlanCrowd(p)
	}
	return experiments.PlanArtifacts(p, w.options(tiny, p, nil))
}

// derived is what a repetition derives from its store.
type derived struct {
	timings []experiments.ArtifactTiming
	crowd   *experiments.CrowdReport
}

func (w simWorkload) derive(tiny bool, p campaign.Profile, store *campaign.ResultStore) (derived, error) {
	if w.spec == nil {
		rep, err := experiments.CrowdFrom(store, p)
		return derived{crowd: &rep}, err
	}
	a, err := experiments.DeriveArtifacts(store, p, w.options(tiny, p, store))
	return derived{timings: a.Timings}, err
}

// simRep is one executed repetition.
type simRep struct {
	wall, cpu float64
	keys      []string // planned job keys
	store     *campaign.ResultStore
	derived   derived // traced pass only
}

// runRep executes one repetition the way a user does: one call that plans,
// runs the campaign, derives the artifacts, then saves the store.
func (w simWorkload) runRep(tiny bool, name, storePath string) (simRep, error) {
	p := w.named(tiny, name)
	rep := simRep{store: campaign.NewResultStore()}
	for _, j := range w.plan(tiny, p).Jobs() { // for the checks; not part of the repetition
		rep.keys = append(rep.keys, j.Key())
	}

	start, cpu0 := time.Now(), campaign.ProcessCPUSeconds()
	opts := w.options(tiny, p, rep.store)
	var err error
	if w.spec == nil {
		_, _, err = experiments.BuildCrowd(context.Background(), p, opts)
	} else {
		_, _, err = experiments.BuildArtifacts(context.Background(), p, opts)
	}
	if err != nil {
		return rep, fmt.Errorf("%s: %w", name, err)
	}
	if err := rep.store.SaveFile(storePath); err != nil {
		return rep, fmt.Errorf("%s: saving store: %w", name, err)
	}
	rep.wall = time.Since(start).Seconds()
	rep.cpu = campaign.ProcessCPUSeconds() - cpu0
	return rep, nil
}

// flushTraces empties the process-wide trace cache, so a repetition pays
// for its traces as a fresh process does and peak memory does not depend on
// how many repetitions a run fits.
func flushTraces() {
	campaign.SetTraceBudget(1)
	campaign.SetTraceBudget(0)
}

// storeDigest is the SHA-256 of the store's JSON with the counters that
// describe how a cell executed (not what it computed) zeroed: those differ
// from run to run.
func storeDigest(store *campaign.ResultStore) (string, error) {
	clean := campaign.NewResultStore()
	for _, e := range store.Entries() {
		e.Result.KernelShards, e.Result.Barriers = 0, 0
		e.Result.ShardEvents, e.Result.BarrierStallSec = nil, 0
		clean.Put(e)
	}
	h := sha256.New()
	if err := clean.Save(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// checks counts what was attempted and what failed, with a bounded list of
// reasons for the report.
type checks struct {
	attempted, failed int
	reasons           []string
}

func (c *checks) fail(format string, args ...any) {
	c.failed++
	if len(c.reasons) < 20 {
		c.reasons = append(c.reasons, fmt.Sprintf(format, args...))
	}
}

// checkStore verifies one repetition's results: every planned job stored,
// every cell and sub-batch complete, no order billed beyond its allocation,
// no cloud instance under a baseline.
func (c *checks) checkStore(rep simRep) {
	const eps = 1e-6
	for _, key := range rep.keys {
		c.attempted++
		e, ok := rep.store.Get(key)
		if !ok {
			c.fail("planned job missing from store: %s", key)
			continue
		}
		r := e.Result
		if !r.Completed {
			c.fail("cell incomplete: %s", key)
		}
		if r.CreditsBilled > r.CreditsAllocated+eps {
			c.fail("cell billed %.6f of %.6f allocated: %s", r.CreditsBilled, r.CreditsAllocated, key)
		}
		if r.Strategy == "" && r.Instances != 0 {
			c.fail("baseline started %d instances: %s", r.Instances, key)
		}
		for _, b := range r.Batches {
			c.attempted++
			if !b.Completed {
				c.fail("sub-batch incomplete: %s in %s", b.BatchID, key)
			}
			if b.CreditsBilled > b.CreditsAllocated+eps {
				c.fail("sub-batch billed %.6f of %.6f allocated: %s", b.CreditsBilled, b.CreditsAllocated, b.BatchID)
			}
		}
	}
}

// outcome is what a workload run hands back to main.
type outcome struct {
	checks
	values map[string]float64
	// samples holds the per-unit measurements (one per repetition, wave or
	// window) behind the reduced values; they go to the result file.
	samples map[string][]float64
	// notes are printed with the human-readable report only.
	notes []string
}

func (o *outcome) sample(metric string, v float64) {
	o.samples[metric] = append(o.samples[metric], v)
}

// finish turns an untraced run's measurements into the end-to-end values:
// the faster half of the units, and set-up, in reference seconds.
func (o *outcome) finish(setup float64, cal *calibrator) {
	scale := cal.scale()
	o.values = map[string]float64{
		"setup_s":     setup * scale,
		"wall_s":      fasterHalf(o.samples["wall_s"]) * scale,
		"cpu_s":       fasterHalf(o.samples["cpu_s"]) * scale,
		"peak_rss_mb": peakRSSMB(),
	}
	o.samples["calibration_s"] = cal.took
	o.notes = append(o.notes, fmt.Sprintf("timings are in reference seconds: measured x %.4f (calibration kernel %.1f ms, median of %d, against %.0f ms)",
		scale, median(cal.took)*1e3, len(cal.took), calibrationRef*1e3))
}

// runSim is the untraced pass of a simulation workload: one warm-up
// repetition in the cold process (set-up), timed repetitions until the time
// budget is spent, then the warm-up's seed again to prove results repeat.
// Every repetition has its own seed, so a run's value is taken over several
// inputs, and starts with an empty trace cache and result store.
func (w simWorkload) runSim(cfg runConfig) (outcome, error) {
	var out outcome
	storePath := filepath.Join(cfg.out, "store-"+w.name+".json")
	warm, err := w.runRep(cfg.tiny, repName(w.name, cfg.seed, 0), storePath)
	if err != nil {
		return out, err
	}
	out.checkStore(warm)
	digest, err := storeDigest(warm.store)
	if err != nil {
		return out, err
	}
	setup := time.Since(processStart).Seconds()

	out.samples = map[string][]float64{}
	var cal calibrator
	timed := time.Now()
	for r := 1; r <= w.minReps || time.Since(timed).Seconds() < cfg.seconds; r++ {
		cal.tick()
		flushTraces()
		rep, err := w.runRep(cfg.tiny, repName(w.name, cfg.seed, r), storePath)
		if err != nil {
			return out, err
		}
		out.checkStore(rep)
		out.sample("wall_s", rep.wall)
		out.sample("cpu_s", rep.cpu)
		if cfg.tiny {
			break
		}
	}

	cal.tick()
	flushTraces()
	again, err := w.runRep(cfg.tiny, repName(w.name, cfg.seed, 0), storePath)
	if err != nil {
		return out, err
	}
	out.attempted++
	if d, err := storeDigest(again.store); err != nil {
		return out, err
	} else if d != digest {
		out.fail("same seed, different results: digest %s then %s", digest[:12], d[:12])
	}

	out.finish(setup, &cal)
	out.notes = append(out.notes, fmt.Sprintf("%d timed repetitions of %d cells, digest %s",
		len(out.samples["wall_s"]), len(warm.keys), digest[:12]))
	return out, nil
}

// cellLayer names the span of one cell: a baseline cell is the middleware
// model alone, a strategy cell adds the SpeQuloS service on top.
func cellLayer(j campaign.Job) string {
	if j.Scenario.Strategy == nil && j.Config == nil {
		return "middleware." + strings.ToLower(j.Scenario.Middleware) + "_cell"
	}
	return "core.strategy_cell"
}

// executeAll runs jobs on `workers` goroutines, one span per cell, into a
// fresh store — campaign.Run's loop with the layer boundary visible.
func executeAll(rec *recorder, parent int, jobs []campaign.Job, workers int) *campaign.ResultStore {
	store := campaign.NewResultStore()
	ch := make(chan campaign.Job)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ch {
				id := rec.start(parent, cellLayer(j))
				e := campaign.Execute(j)
				rec.end(id)
				store.Put(e)
			}
		}()
	}
	for _, j := range jobs {
		ch <- j
	}
	close(ch)
	wg.Wait()
	return store
}

// withShards returns the jobs with the execution-only shard count set.
func withShards(jobs []campaign.Job, shards int) []campaign.Job {
	out := make([]campaign.Job, len(jobs))
	for i, j := range jobs {
		j.Scenario.Profile.KernelShards = shards
		out[i] = j
	}
	return out
}

// shardRuns executes jobs serially at 1 and at nproc kernel shards and
// returns both stores and the speed-up of the second over the first.
func shardRuns(jobs []campaign.Job) (one, all *campaign.ResultStore, speedup float64) {
	t1 := time.Now()
	one = executeAll(nil, 0, withShards(jobs, 1), 1)
	d1 := time.Since(t1).Seconds()
	tn := time.Now()
	all = executeAll(nil, 0, withShards(jobs, runtime.GOMAXPROCS(0)), 1)
	return one, all, d1 / time.Since(tn).Seconds()
}

// runSimTraced is the traced pass: after a warm-up, one repetition executed
// step by step from here, with a span around every call into a layer, then
// the measurements that need their own runs.
func (w simWorkload) runSimTraced(cfg runConfig) (outcome, error) {
	var out outcome
	v := map[string]float64{}
	out.values = v
	storePath := filepath.Join(cfg.out, "store-"+w.name+".json")
	if _, err := w.runRep(cfg.tiny, repName(w.name, cfg.seed, 0), storePath); err != nil {
		return out, err
	}
	flushTraces()

	name := repName(w.name, cfg.seed, 1)
	p := w.named(cfg.tiny, name)
	if p.TraceBudgetBytes > 0 {
		campaign.SetTraceBudget(p.TraceBudgetBytes) // as Campaign.Run does
	}
	rec := newRecorder(name)
	var cal calibrator
	cal.tick()
	cpu0 := campaign.ProcessCPUSeconds()
	root := rec.start(0, "bench.rep")
	var plan *campaign.Plan
	v["campaign.plan_s"] = rec.timed(root, "campaign.plan", func(int) { plan = w.plan(cfg.tiny, p) })
	jobs := plan.Jobs()
	rep := simRep{}
	for _, j := range jobs {
		rep.keys = append(rep.keys, j.Key())
	}
	v["campaign.run_s"] = rec.timed(root, "campaign.run", func(id int) {
		rep.store = executeAll(rec, id, jobs, min(p.Workers(), len(jobs)))
	})
	var derr error
	v["experiments.derive_s"] = rec.timed(root, "experiments.derive", func(int) {
		rep.derived, derr = w.derive(cfg.tiny, p, rep.store)
	})
	if derr != nil {
		return out, fmt.Errorf("%s: deriving: %w", name, derr)
	}
	var serr error
	v["campaign.store_save_s"] = rec.timed(root, "campaign.store_save", func(int) { serr = rep.store.SaveFile(storePath) })
	if serr != nil {
		return out, fmt.Errorf("%s: saving store: %w", name, serr)
	}
	rec.end(root)
	cpu := campaign.ProcessCPUSeconds() - cpu0
	cal.tick()
	v["campaign.trace_cache_resident_mb"] = float64(campaign.TraceCacheStats().ResidentBytes) / 1e6
	out.checkStore(rep)

	// The resume path: load the saved store, run the same plan against it.
	var loaded *campaign.ResultStore
	var lerr error
	v["campaign.store_load_s"] = rec.timed(0, "campaign.store_load", func(int) { loaded, lerr = campaign.LoadFile(storePath) })
	if lerr != nil {
		return out, fmt.Errorf("%s: loading store: %w", name, lerr)
	}
	var resumed campaign.Stats
	v["campaign.resume_s"] = rec.timed(0, "campaign.resume", func(int) {
		c := &campaign.Campaign{Profile: p, Plan: plan}
		resumed, lerr = c.Run(context.Background(), loaded)
	})
	out.attempted++
	if lerr != nil || resumed.Executed != 0 || resumed.Cached != len(jobs) {
		out.fail("resume re-executed %d of %d jobs (err %v)", resumed.Executed, len(jobs), lerr)
	}
	if fi, err := os.Stat(storePath); err == nil {
		v["campaign.store_mb"] = float64(fi.Size()) / 1e6
	}

	// Layer times from the spans.
	busy, self := rec.busySeconds(), rec.selfSeconds()
	v["bench.traced_wall_s"] = busy["bench.rep"] * cal.scale() // reference seconds, as wall_s
	v["bench.attributed_ratio"] = 1 - self["bench.rep"]/busy["bench.rep"]
	var baseS, baseN, stratN float64
	var baseEvents uint64
	for _, j := range jobs {
		if j.Scenario.Strategy == nil && j.Config == nil {
			baseN++
			if e, ok := rep.store.Get(j.Key()); ok {
				baseEvents += e.Result.Events
			}
		} else {
			stratN++
		}
	}
	for _, mw := range campaign.AllMiddlewares() {
		s := busy["middleware."+strings.ToLower(mw)+"_cell"]
		v["middleware."+strings.ToLower(mw)+"_cell_s"] = s
		baseS += s
	}
	v["core.strategy_cell_s"] = busy["core.strategy_cell"]
	if baseS > 0 && baseN > 0 && stratN > 0 {
		v["middleware.baseline_events_per_s"] = float64(baseEvents) / baseS
		v["core.strategy_over_baseline_x"] = (busy["core.strategy_cell"] / stratN) / (baseS / baseN)
	}
	for _, t := range rep.derived.timings {
		switch t.Name {
		case "table2":
			v["experiments.table2_s"] = t.Elapsed.Seconds()
		case "table5":
			v["experiments.table5_s"] = t.Elapsed.Seconds()
		}
	}
	simulated(v, rep, cpu)
	if err := w.traceGeneration(v, jobs); err != nil {
		return out, err
	}

	// Shard-count independence, and what the extra shards buy.
	digest, err := storeDigest(rep.store)
	if err != nil {
		return out, err
	}
	if w.shardDigest {
		one, all, speedup := shardRuns(jobs)
		v["sim.shard_speedup_x"] = speedup
		for shards, st := range map[int]*campaign.ResultStore{1: one, runtime.GOMAXPROCS(0): all} {
			out.attempted++
			if d, err := storeDigest(st); err != nil {
				return out, err
			} else if d != digest {
				out.fail("digest at %d kernel shards %s differs from %s", shards, d[:12], digest[:12])
			}
		}
	}
	if w.name == "tenants" && !cfg.tiny {
		crowd2kDiagnostic(v, cfg.seed)
	}
	microBenchmarks(v, cfg.tiny)

	out.notes = append(out.notes, fmt.Sprintf("traced repetition %s, digest %s", name, digest[:12]))
	return out, rec.writeFile(filepath.Join(cfg.out, "trace-"+w.name+".json"))
}

// simulated fills the counts and simulated statistics of one repetition.
// They are functions of the seed alone, so a speed-only change must leave
// every one of them where it was.
func simulated(v map[string]float64, rep simRep, cpu float64) {
	entries := rep.store.Entries()
	v["campaign.jobs"] = float64(len(entries))
	var events, barriers uint64
	var stall float64
	var shardEvents []uint64
	var speedups []float64
	base := map[string]float64{} // completion time of baseline cells, by coordinates
	coord := func(r campaign.Result) string {
		return fmt.Sprintf("%s|%s|%s|%d", r.Middleware, r.TraceName, r.BotClass, r.Offset)
	}
	for _, e := range entries {
		if e.Result.Strategy == "" {
			base[coord(e.Result)] = e.Result.CompletionTime
		}
	}
	defaultLabel := core.DefaultStrategy().Label()
	for _, e := range entries {
		r := e.Result
		events += r.Events
		barriers += r.Barriers
		stall += r.BarrierStallSec
		for i, n := range r.ShardEvents {
			if i == len(shardEvents) {
				shardEvents = append(shardEvents, 0)
			}
			shardEvents[i] += n
		}
		v["core.instances_started"] += float64(r.Instances)
		v["core.credits_billed"] += r.CreditsBilled
		if len(r.Batches) == 0 {
			if r.Completed {
				v["core.batches_completed"]++
			}
			if r.Strategy != "" && r.Instances > 0 {
				v["core.batches_triggered"]++
			}
			if b := base[coord(r)]; r.Strategy == defaultLabel && r.CompletionTime > 0 && b > 0 {
				speedups = append(speedups, b/r.CompletionTime)
			}
		}
		for _, b := range r.Batches {
			if b.Completed {
				v["core.batches_completed"]++
			}
			if r.Strategy != "" && b.Instances > 0 {
				v["core.batches_triggered"]++
			}
		}
	}
	if rep.derived.crowd != nil {
		for _, row := range rep.derived.crowd.Rows {
			speedups = append(speedups, row.MedianSpeedup)
		}
	}
	v["core.median_speedup_x"] = median(speedups)
	v["sim.events"] = float64(events)
	v["sim.barriers"] = float64(barriers)
	v["sim.barrier_stall_s"] = stall
	if events > 0 {
		v["sim.cpu_ns_per_event"] = cpu * 1e9 / float64(events)
	}
	if len(shardEvents) > 0 {
		var sum, most uint64
		for _, n := range shardEvents {
			sum += n
			most = max(most, n)
		}
		if sum > 0 {
			v["sim.shard_skew"] = float64(most) * float64(len(shardEvents)) / float64(sum)
		}
	}
}

// traceGeneration times Scenario.GenerateTrace, serially, over the distinct
// traces the jobs bind at their first horizon.
func (w simWorkload) traceGeneration(v map[string]float64, jobs []campaign.Job) error {
	seen := map[string]bool{}
	var seconds float64
	var bytes int64
	for _, j := range jobs {
		sc := j.Scenario
		key := fmt.Sprintf("%s|%d", sc.TraceName, sc.Seed())
		if seen[key] {
			continue
		}
		seen[key] = true
		start := time.Now()
		tr, err := sc.GenerateTrace(sc.Profile.HorizonDays * 86400)
		if err != nil {
			return err
		}
		seconds += time.Since(start).Seconds()
		bytes += tr.Bytes()
	}
	v["trace.generate_s"] = seconds
	v["trace.generated_mb"] = float64(bytes) / 1e6
	return nil
}

// crowd2kDiagnostic runs the baseline cells of the canonical, sharded
// crowd2k profile. That model starves most of its 2000 batches, so the
// profile is kept out of the gated workloads and only its completion ratio
// and shard speed-up are recorded.
func crowd2kDiagnostic(v map[string]float64, seed int64) {
	p := experiments.Crowd2K()
	p.Name = repName("crowd2k", seed, 0)
	var jobs []campaign.Job
	for _, j := range experiments.CrowdJobs(p) {
		if j.Scenario.Strategy == nil {
			jobs = append(jobs, j)
		}
	}
	_, all, speedup := shardRuns(jobs)
	var done, total float64
	for _, e := range all.Entries() {
		for _, b := range e.Result.Batches {
			total++
			if b.Completed {
				done++
			}
		}
	}
	v["sim.crowd2k_shard_speedup_x"] = speedup
	if total > 0 {
		v["campaign.crowd2k_sharded_done_ratio"] = done / total
	}
}
