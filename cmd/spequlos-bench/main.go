// Command spequlos-bench regenerates every table and figure of the paper's
// evaluation (§4) from ONE campaign — each unique (scenario, strategy)
// simulation executes exactly once, and every artifact derives from the
// shared result store — and writes them under -out (default results/):
//
//	figure1.{txt,svg}      example execution profile with tail annotations
//	figure2.{txt,csv,svg}  tail slowdown CDF per middleware
//	table1.txt             tail fractions per BE-DCI class
//	table2.txt             trace statistics vs published values
//	figure4.txt            Tail Removal Efficiency CCDF per strategy, one
//	                       figure4{f,r,d}.svg per deployment in the sweep
//	figure5.{txt,svg}      credit consumption per strategy
//	figure6.txt            completion times with/without SpeQuloS (9C-C-R),
//	                       one figure6-<middleware>-<bot>.svg per panel
//	figure7.txt            execution stability, one figure7-<middleware>.svg
//	table4.txt             prediction success rates
//	table5.txt             the EDGI deployment slice
//	ablation-*.txt         design-choice sweeps (-ablations)
//	comparison.txt         three-middleware comparison (-comparison)
//	summary.txt            everything concatenated
//	crowd.txt              per-user fairness and poll economy (the
//	                       multi-batch profiles write this file only)
//
// The -profile flag selects quick / standard / full scale, or one of the
// multi-batch profiles stress / crowd / crowd2k (see internal/experiments);
// -strategies limits the Fig 4/5 sweep. The -store flag persists the
// campaign's result store as JSON: re-running with the same store resumes,
// executing only jobs not already stored. This command measures nothing:
// the repository's performance record is bench/ (`bash bench/run.sh`).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"spequlos/internal/campaign"
	"spequlos/internal/core"
	"spequlos/internal/experiments"
)

func main() {
	var (
		profile    = flag.String("profile", "standard", "experiment profile: quick standard full (the paper's artifact matrix) or stress crowd crowd2k (multi-batch, crowd.txt only)")
		out        = flag.String("out", "results", "output directory")
		strats     = flag.String("strategies", "all", "comma-separated strategy labels for the sweep, or 'all'")
		traces     = flag.String("traces", "all", "comma-separated BE-DCI traces for the matrix, or 'all' (samples the matrix, e.g. a `full` subset that fits a small machine)")
		mws        = flag.String("middlewares", "all", "comma-separated middlewares for the matrix, or 'all'")
		bots       = flag.String("bots", "all", "comma-separated BoT classes for the matrix, or 'all'")
		offsets    = flag.Int("offsets", 0, "submission offsets per configuration (0 = the profile's default)")
		storePath  = flag.String("store", "", "result store JSON path: load if present, save after the run (resume)")
		ablations  = flag.Bool("ablations", false, "run the design-choice ablation sweeps")
		comparison = flag.Bool("comparison", false, "run the three-middleware comparison")
		verbose    = flag.Bool("v", false, "log per-scenario progress")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file after the run")
	)
	flag.Parse()

	p, err := experiments.ProfileByName(*profile)
	if err != nil {
		fatal(err)
	}
	if *offsets > 0 {
		p.Offsets = *offsets
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer writeMemProfile(*memprofile)
	}

	// Multi-batch profiles (stress, crowd, crowd2k) run the concurrency
	// campaign instead of the paper artifact matrix: per middleware, hundreds
	// to thousands of QoS batches share one trace (default strategy + paired
	// baseline), and the report measures per-user fairness — per tier when
	// the profile is tiered — and the service's poll economy. The
	// matrix-shaping flags do not apply there; reject non-default values
	// instead of silently mislabeling a sweep the campaign never ran.
	crowd := p.Batches > 1
	if crowd && (*strats != "all" || *ablations || *comparison ||
		*traces != "all" || *mws != "all" || *bots != "all" || *offsets > 0) {
		fatal(fmt.Errorf("matrix-shaping flags (-strategies/-traces/-middlewares/-bots/-offsets/-ablations/-comparison) do not apply to the %s profile (it runs the default strategy against its paired baseline on pinned coordinates)", p.Name))
	}

	opts := experiments.ArtifactOptions{Store: campaign.NewResultStore()}
	if *storePath != "" {
		store, loaded, err := campaign.LoadFileIfExists(*storePath)
		if err != nil {
			fatal(err)
		}
		opts.Store = store
		if loaded {
			fmt.Printf("resuming from %s (%d stored results)\n", *storePath, store.Len())
		}
	}
	if *verbose {
		opts.Progress = campaign.LogProgress(os.Stderr)
	}

	// Ctrl-C cancels the campaign; the store saved so far still persists,
	// so the next run with the same -store resumes where this one stopped.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	start := time.Now()
	// campaignDone saves the store first — a cancelled or failed campaign
	// keeps what it executed — then stops on the campaign's error.
	campaignDone := func(stats campaign.Stats, err error) {
		if *storePath != "" {
			if serr := opts.Store.SaveFile(*storePath); serr != nil {
				fatal(serr)
			}
			fmt.Printf("store saved to %s (%d results)\n", *storePath, opts.Store.Len())
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("campaign done in %v: %d executed, %d cached\n",
			stats.Elapsed.Round(time.Millisecond), stats.Executed, stats.Cached)
	}

	if crowd {
		fmt.Printf("running %s campaign: %d unique simulation jobs × %d concurrent batches…\n",
			p.Name, experiments.PlanCrowd(p).Len(), p.Batches)
		rep, stats, err := experiments.BuildCrowd(ctx, p, opts)
		campaignDone(stats, err)
		text := rep.Render()
		if err := os.WriteFile(filepath.Join(*out, "crowd.txt"), []byte(text), 0o644); err != nil {
			fatal(err)
		}
		fmt.Println(text)
		fmt.Printf("crowd artifacts written to %s/ in %v\n", *out, time.Since(start).Round(time.Millisecond))
		return
	}

	opts.Spec = experiments.MatrixSpec{
		Traces:      splitList(*traces),
		Middlewares: splitList(*mws),
		Bots:        splitList(*bots),
	}
	// A typo'd name fails up front instead of panicking mid-campaign.
	for _, j := range opts.Spec.Jobs(p) {
		if err := j.Scenario.Validate(); err != nil {
			fatal(err)
		}
	}
	if *strats == "all" {
		opts.Spec.Strategies = core.AllStrategies()
	} else {
		for _, label := range strings.Split(*strats, ",") {
			st, err := core.StrategyByLabel(strings.TrimSpace(label))
			if err != nil {
				fatal(err)
			}
			opts.Spec.Strategies = append(opts.Spec.Strategies, st)
		}
	}
	opts.Ablations = *ablations
	opts.Comparison = *comparison
	// The CLI never reads Artifacts.Matrix: every figure/table streams from
	// the store per cell, which is what keeps paper-scale (`full`) derivation
	// memory flat.
	opts.StreamMatrix = true

	fmt.Printf("running %s campaign: %d unique simulation jobs…\n",
		p.Name, experiments.PlanArtifacts(p, opts).Len())
	a, stats, err := experiments.BuildArtifacts(ctx, p, opts)
	campaignDone(stats, err)

	var summary strings.Builder
	emit := func(name, text, csv string) {
		if err := os.WriteFile(filepath.Join(*out, name+".txt"), []byte(text), 0o644); err != nil {
			fatal(err)
		}
		if csv != "" {
			if err := os.WriteFile(filepath.Join(*out, name+".csv"), []byte(csv), 0o644); err != nil {
				fatal(err)
			}
		}
		summary.WriteString(text)
		summary.WriteString("\n")
		fmt.Println(text)
	}
	emitSVG := func(name string, chart interface{ WriteSVG(io.Writer) error }) {
		path := filepath.Join(*out, name+".svg")
		f, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := chart.WriteSVG(f); err != nil {
			// Narrowed sweeps leave some panels empty; skip them.
			fmt.Fprintf(os.Stderr, "skipping %s: %v\n", name, err)
			os.Remove(path)
		}
	}

	emit("figure1", a.Figure1.Render(), "")
	emitSVG("figure1", experiments.Figure1Chart(a.Figure1))

	emit("figure2", a.Figure2.Render(), figure2CSV(a.Figure2))
	emitSVG("figure2", experiments.Figure2Chart(a.Figure2))

	emit("table1", a.Table1.Render(), "")
	emit("table2", experiments.RenderTable2(a.Table2), "")

	emit("figure4", a.Figure4.Render(), "")
	for _, deploy := range []string{"F", "R", "D"} {
		emitSVG("figure4"+strings.ToLower(deploy), experiments.Figure4Chart(a.Figure4, deploy))
	}

	emit("figure5", a.Figure5.Render(), "")
	emitSVG("figure5", experiments.Figure5Chart(a.Figure5))

	emit("figure6", a.Figure6.Render(), "")
	for _, mw := range experiments.Middlewares() {
		for _, bc := range experiments.BotClasses() {
			if len(a.Figure6.Cells[mw][bc]) > 0 {
				emitSVG("figure6-"+strings.ToLower(mw)+"-"+strings.ToLower(bc),
					experiments.Figure6Chart(a.Figure6, mw, bc))
			}
		}
	}

	emit("figure7", a.Figure7.Render(), "")
	for _, mw := range experiments.Middlewares() {
		emitSVG("figure7-"+strings.ToLower(mw), experiments.Figure7Chart(a.Figure7, mw))
	}

	emit("table4", a.Table4.Render(), "")
	emit("table5", a.Table5.Render(), "")

	if *ablations {
		emit("ablation-credits", experiments.RenderAblation(
			"Ablation — credit provisioning fraction", a.CreditSweep), "")
		emit("ablation-period", experiments.RenderAblation(
			"Ablation — monitoring period", a.PeriodSweep), "")
		emit("ablation-trigger", experiments.RenderAblation(
			"Ablation — trigger strategy", a.TriggerSweep), "")
	}
	if *comparison {
		emit("comparison", experiments.RenderMiddlewareComparison(a.Comparison), "")
	}

	if err := os.WriteFile(filepath.Join(*out, "summary.txt"), []byte(summary.String()), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("all artifacts written to %s/ in %v\n", *out, time.Since(start).Round(time.Second))
}

func figure2CSV(f experiments.Figure2) string {
	var b strings.Builder
	b.WriteString("slowdown,boinc_cdf,xwhep_cdf\n")
	for _, s := range []float64{1, 1.1, 1.2, 1.33, 1.5, 1.75, 2, 2.5, 3, 4, 5, 7.5, 10, 15, 20, 50, 100} {
		fmt.Fprintf(&b, "%g,%g,%g\n", s,
			f.FractionBelow(experiments.BOINC, s), f.FractionBelow(experiments.XWHEP, s))
	}
	return b.String()
}

// writeMemProfile records the post-run heap (after a forced GC, so the
// profile shows retained memory, not garbage awaiting collection).
func writeMemProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spequlos-bench:", err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "spequlos-bench:", err)
	}
}

// splitList resolves a comma-separated subset flag: "all" keeps the spec's
// default (nil), anything else is split and trimmed; Scenario.Validate
// checks the names.
func splitList(val string) []string {
	if val == "all" || val == "" {
		return nil
	}
	var out []string
	for _, name := range strings.Split(val, ",") {
		out = append(out, strings.TrimSpace(name))
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "spequlos-bench:", err)
	os.Exit(1)
}
