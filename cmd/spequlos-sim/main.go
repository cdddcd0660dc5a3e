// Command spequlos-sim runs one BoT execution scenario — baseline and
// optionally with SpeQuloS — and prints the run report.
//
// Usage:
//
//	spequlos-sim -middleware XWHEP -trace seti -bot SMALL -strategy 9C-C-R
//
// The -strategy flag accepts the paper's combination labels (9C/9A/D for
// the trigger, G/C for sizing, F/R/D for deployment), or "none" for a
// baseline-only run, or "all" to compare every combination.
//
// All runs execute through one campaign: the baseline and every strategy
// variant are planned up front and run on a bounded worker pool. The
// -store flag persists the result store as JSON; re-running with the same
// store skips simulations already recorded (resume), and -v streams
// per-job progress.
//
// The -emulate flag additionally runs every strategy cell through the
// deployable HTTP service stack (internal/service) on the virtual clock —
// the emulation mode of internal/emul — and prints a conformance report
// proving the stack's Result equals the simulator's, every field by == with
// no tolerance, with the first differing field under each cell that does
// not. Emulated cells are jobs of the same campaign
// engine, so -store resumes them too. The command exits non-zero if any cell
// diverges, and refuses the sharded-kernel profiles (stress, crowd2k), whose
// cells are a model the stack does not serve.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"spequlos/internal/campaign"
	"spequlos/internal/core"
	"spequlos/internal/emul"
	"spequlos/internal/experiments"
)

func main() {
	var (
		mw        = flag.String("middleware", "XWHEP", "middleware: BOINC, XWHEP or CONDOR")
		tn        = flag.String("trace", "seti", "BE-DCI trace: seti nd g5klyo g5kgre spot10 spot100")
		bc        = flag.String("bot", "SMALL", "BoT class: SMALL BIG RANDOM")
		strategy  = flag.String("strategy", "9C-C-R", "strategy label, 'none' or 'all'")
		profile   = flag.String("profile", "standard", "experiment profile: quick standard full stress crowd crowd2k (crowd cells interleave hundreds of QoS batches; crowd2k runs 2000 tiered batches)")
		offset    = flag.Int("offset", 0, "submission offset index (changes the seed)")
		storePath = flag.String("store", "", "result store JSON path: load if present, save after the run (resume)")
		emulate   = flag.Bool("emulate", false, "also run each strategy cell through the deployable HTTP stack and report conformance")
		verbose   = flag.Bool("v", false, "log per-job progress")
	)
	flag.Parse()

	p, err := experiments.ProfileByName(*profile)
	if err != nil {
		fatal(err)
	}
	sc := experiments.Scenario{
		Profile: p, Middleware: *mw, TraceName: *tn, BotClass: *bc, Offset: *offset,
	}
	if err := sc.Validate(); err != nil {
		fatal(err)
	}

	var strategies []core.Strategy
	switch *strategy {
	case "none":
	case "all":
		strategies = core.AllStrategies()
	default:
		st, err := core.StrategyByLabel(*strategy)
		if err != nil {
			fatal(err)
		}
		strategies = []core.Strategy{st}
	}

	if *emulate && len(strategies) == 0 {
		fatal(fmt.Errorf("-emulate needs at least one strategy (the stack is the QoS service)"))
	}

	// Plan the whole comparison as one campaign: the baseline plus one job
	// per strategy, all paired on the same seed.
	baseJob := campaign.Job{Scenario: sc}
	jobs := []campaign.Job{baseJob}
	var strategyJobs []campaign.Job
	for _, st := range strategies {
		st := st
		scs := sc
		scs.Strategy = &st
		j := campaign.Job{Scenario: scs}
		jobs = append(jobs, j)
		strategyJobs = append(strategyJobs, j)
	}

	store := campaign.NewResultStore()
	if *storePath != "" {
		var err error
		store, _, err = campaign.LoadFileIfExists(*storePath)
		if err != nil {
			fatal(err)
		}
	}
	c := campaign.New(p, jobs...)
	if *verbose {
		c.Progress = campaign.LogProgress(os.Stderr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	_, runErr := c.Run(ctx, store)
	var conformance emul.Report
	if *emulate && runErr == nil {
		// Every strategy cell again with the HTTP stack as its QoS side, into
		// the same store: the simulator side is already in it, and the
		// emulated side resumes from it like any other job.
		conformance, runErr = emul.RunConformance(ctx, emul.Spec{
			Profile:       p,
			Middlewares:   []string{*mw},
			Traces:        []string{*tn},
			Bots:          []string{*bc},
			Strategies:    strategies,
			OffsetIndexes: []int{*offset},
			Store:         store,
		})
	}
	if *storePath != "" {
		if err := store.SaveFile(*storePath); err != nil {
			fatal(err)
		}
	}
	if runErr != nil {
		fatal(runErr)
	}

	base, ok := store.Result(baseJob)
	if !ok {
		fatal(fmt.Errorf("baseline missing from store"))
	}
	report("baseline", base)
	for _, j := range strategyJobs {
		res, ok := store.Result(j)
		if !ok {
			fatal(fmt.Errorf("strategy run missing from store"))
		}
		report(j.Scenario.StrategyLabel(), res)
		if base.Completed && res.Completed && res.CompletionTime > 0 {
			fmt.Printf("  speedup vs baseline: %.2fx\n", base.CompletionTime/res.CompletionTime)
		}
	}
	if *emulate {
		fmt.Print(conformance.Text())
		if !conformance.Pass() {
			fatal(fmt.Errorf("emulation diverged from the simulator on %d cells", len(conformance.Failures())))
		}
	}
}

func report(label string, r experiments.Result) {
	fmt.Printf("[%s] %s/%s/%s seed=%d\n", label, r.Middleware, r.TraceName, r.BotClass, r.Seed)
	if len(r.Batches) > 0 {
		// A multi-batch cell reports its per-batch spread even when some
		// batches missed the horizon — the partial view is the point.
		reportCrowd(r)
		return
	}
	if !r.Completed {
		fmt.Println("  did not complete within the horizon")
		return
	}
	fmt.Printf("  tasks=%d completion=%.0fs ideal=%.0fs slowdown=%.2f tail: %d tasks, %.1f%% of time\n",
		r.Size, r.CompletionTime, r.Tail.IdealTime, r.Tail.Slowdown,
		r.Tail.TailTasks, r.Tail.TailTimeFraction*100)
	if r.Strategy != "" {
		fmt.Printf("  cloud: %d instances, %.0f cpu·s, credits %.1f/%.1f (triggered at %.0fs)\n",
			r.Instances, r.CloudCPUSeconds, r.CreditsBilled, r.CreditsAllocated, r.TriggeredAt)
	}
}

// reportCrowd summarizes a multi-batch cell: per-batch completion spread
// and aggregate cloud accounting.
func reportCrowd(r experiments.Result) {
	s := experiments.SummarizeBatches(r.Batches)
	fmt.Printf("  crowd: %d batches (%d completed, %d triggered), %d tasks, makespan %.0fs\n",
		s.Batches, s.Completed, s.Triggered, r.Size, r.CompletionTime)
	fmt.Printf("  per-batch completion: median %.0fs, p90 %.0fs, max %.0fs\n",
		s.MedianCompletion, s.P90Completion, s.MaxCompletion)
	if r.Strategy != "" {
		fmt.Printf("  cloud: %d instances, credits %.1f/%.1f\n",
			r.Instances, r.CreditsBilled, r.CreditsAllocated)
	}
	// Tiered cells break the completion spread down per service class.
	for _, t := range experiments.CrowdTiers(r.Batches) {
		fmt.Printf("  tier %-10s %4d batches (%d completed): median %.0fs, p90 %.0fs, max %.0fs\n",
			t.Tier, t.Batches, t.Completed, t.MedianCompletion, t.P90Completion, t.MaxCompletion)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "spequlos-sim:", err)
	os.Exit(1)
}
