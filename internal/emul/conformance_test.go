package emul

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"spequlos/internal/campaign"
	"spequlos/internal/core"
	"spequlos/internal/experiments"
)

// TestQuickConformance is the acceptance gate of the emulation mode: every
// cell of the quick-profile subset — all middleware, two contrasting
// traces, strategies covering every trigger, sizing and deployment — must
// give the in-process simulator's result through the deployable HTTP stack:
// every field equal.
func TestQuickConformance(t *testing.T) {
	rep, err := RunConformance(context.Background(), QuickSpec())
	if err != nil {
		t.Fatal(err)
	}
	want := len(campaign.AllMiddlewares()) * 2 * 1 * 4
	if len(rep.Cells) != want {
		t.Fatalf("cells: %d, want %d", len(rep.Cells), want)
	}
	for _, c := range rep.Cells {
		if c.Pass {
			continue
		}
		t.Errorf("cell %s diverged (diff=%q err=%q)\n  sim:  %+v\n  emul: %+v",
			c.Label(), c.Diff, c.Err, c.Sim, c.Emul)
	}
	if !rep.Pass() {
		t.Logf("\n%s", rep.Text())
	}
}

// TestTable5Conformance runs the two cells of Table 5's EDGI slice, XW@LAL
// and XW@LRI, through the deployable HTTP stack: one conformance spec per
// site profile, each one DG server with its cloud. Every field of the cell
// and of each of its batches, CloudTasks (the StratusLab and EC2 columns)
// included, must be equal.
func TestTable5Conformance(t *testing.T) {
	cloudTasks := 0
	for _, j := range experiments.Table5Jobs(20260611) {
		sc := j.Scenario
		rep, err := RunConformance(context.Background(), Spec{
			Profile: sc.Profile, Middlewares: []string{sc.Middleware}, Traces: []string{sc.TraceName},
			Bots: []string{sc.BotClass}, Strategies: []core.Strategy{*sc.Strategy},
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Cells) != 1 || !rep.Pass() {
			t.Fatalf("%s diverged:\n%s", sc.BotID(), rep.Text())
		}
		for _, b := range rep.Cells[0].Emul.Batches {
			cloudTasks += b.CloudTasks
		}
	}
	if cloudTasks == 0 {
		t.Fatal("no Table 5 task ran in the cloud: the cloud columns were not compared")
	}
}

func TestConformanceReportText(t *testing.T) {
	rep := Report{Profile: "quick", Cells: []Cell{
		{Middleware: "XWHEP", Trace: "seti", Bot: "SMALL", Strategy: "9C-C-R",
			Sim:  campaign.Result{Completed: true, CompletionTime: 1000, Instances: 2, CreditsBilled: 3},
			Emul: campaign.Result{Completed: true, CompletionTime: 1000, Instances: 2, CreditsBilled: 3},
			Pass: true},
		{Middleware: "BOINC", Trace: "nd", Bot: "BIG", Strategy: "9C-G-F", Err: "boom"},
	}}
	if rep.Pass() {
		t.Fatal("report with a failing cell passed")
	}
	txt := rep.Text()
	for _, want := range []string{"XWHEP/seti/SMALL/9C-C-R#0", "PASS", "ERROR boom", "FAIL (1 cells diverged)"} {
		if !strings.Contains(txt, want) {
			t.Errorf("report text missing %q:\n%s", want, txt)
		}
	}
	if got := len(rep.Failures()); got != 1 {
		t.Errorf("failures: %d", got)
	}
}

// TestConformanceDetectsDivergence proves the harness is not vacuous: a
// deliberately skewed tolerance-free comparison of different strategies
// must fail.
func TestConformanceDetectsDivergence(t *testing.T) {
	// Store a simulator result computed under a different strategy than the
	// emulated one: the harness must flag the divergence.
	scSim := quickScenario("XWHEP", "seti", "9C-G-F")
	scEmul := quickScenario("XWHEP", "seti", "9C-C-R")
	store := campaign.NewResultStore()
	e := campaign.Execute(campaign.Job{Scenario: scSim})
	// Re-key the entry under the emulated scenario's key, simulating a
	// stale/corrupted store.
	e.Key = campaign.Job{Scenario: scEmul}.Key()
	e.Result.Strategy = scEmul.StrategyLabel()
	store.Put(e)
	spec := Spec{
		Profile: campaign.Quick(), Middlewares: []string{"XWHEP"},
		Traces: []string{"seti"}, Bots: []string{"SMALL"},
		Strategies: []core.Strategy{*scEmul.Strategy},
		Store:      store,
	}
	rep, err := RunConformance(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass() {
		t.Fatalf("divergent strategies conformed:\n%s", rep.Text())
	}
}

// TestEmulationRefusesShardedModel: a sharded-kernel profile is another model
// than the one the stack serves — every batch on its own DG server over a
// slice of the pool, against one server over all of it — so emulating it
// could only report a model mismatch as a stack divergence (stress/9C-C-R
// used to print sim ct 16869 / emul ct 17611 FAIL). The executor refuses the
// job; RunCell and RunConformance surface the refusal as an error that names
// the profile and the reason, never as a report with a failing row.
func TestEmulationRefusesShardedModel(t *testing.T) {
	sc := quickScenario("XWHEP", "seti", "9C-C-R")
	sc.Profile = campaign.Stress()
	_, err := RunCell(sc)
	if err == nil || !strings.Contains(err.Error(), "stress") || !strings.Contains(err.Error(), "sharded-kernel model") {
		t.Fatalf("RunCell on a sharded profile: err = %v", err)
	}
	rep, err := RunConformance(context.Background(), Spec{
		Profile: sc.Profile, Middlewares: []string{"XWHEP"}, Traces: []string{"seti"},
		Bots: []string{"SMALL"}, Strategies: []core.Strategy{*sc.Strategy},
	})
	if err == nil || !strings.Contains(err.Error(), "stress") || len(rep.Cells) != 0 {
		t.Fatalf("RunConformance on a sharded profile: %d cells, err = %v", len(rep.Cells), err)
	}
}

// TestConformanceResumes: both sides of every cell are jobs of one campaign
// into Spec.Store, so a second conformance run over the same store executes
// nothing on either side and reports exactly what the first one did.
func TestConformanceResumes(t *testing.T) {
	spec := QuickSpec()
	spec.Middlewares, spec.Traces = []string{"XWHEP"}, []string{"seti"}
	spec.Store = campaign.NewResultStore()
	first, err := RunConformance(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Pass() || spec.Store.Len() != 2*len(first.Cells) {
		t.Fatalf("first run: pass=%v, %d cells, %d stored entries", first.Pass(), len(first.Cells), spec.Store.Len())
	}
	// The campaign RunConformance plans finds every job of both sides cached.
	c := campaign.Campaign{Profile: spec.Profile, Plan: campaign.NewPlan()}
	for _, sc := range spec.withDefaults().scenarios() {
		c.Plan.Add(campaign.Job{Scenario: sc}, Job(sc))
	}
	stats, err := c.Run(context.Background(), spec.Store)
	if err != nil || stats.Executed != 0 || stats.Cached != 2*len(first.Cells) {
		t.Fatalf("resume: executed %d, cached %d of %d, err %v", stats.Executed, stats.Cached, 2*len(first.Cells), err)
	}
	// And so does RunConformance itself: a marker written over every stored
	// entry survives the second run, which a re-executed job would overwrite.
	for _, e := range spec.Store.Entries() {
		e.Variant = "stored"
		spec.Store.Put(e)
	}
	second, err := RunConformance(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range spec.Store.Entries() {
		if e.Variant != "stored" {
			t.Errorf("second run executed %s again", e.Key)
		}
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("resumed report differs:\n first  %s\n second %s", first.Text(), second.Text())
	}
}

// TestReportIsTheDiff: a failing cell says where its two results part — the
// first differing field with both values, the aggregate before the batches,
// and for a multi-batch cell the first batch that differs — so a conformance
// failure reads as a diff. Every field is compared by ==.
func TestReportIsTheDiff(t *testing.T) {
	sc := quickScenario("XWHEP", "seti", "9C-C-R")
	res := campaign.Result{Completed: true, CompletionTime: 1000, TriggeredAt: 120, Instances: 1, CreditsBilled: 2}
	store := campaign.NewResultStore()
	// put stores the job's result with batch b001 completing at ct1, after
	// mutate.
	put := func(j campaign.Job, ct1 float64, mutate func(*campaign.Result)) {
		r := res
		r.Batches = []campaign.BatchResult{
			{BatchID: "b000", Completed: true, CompletionTime: 500, TriggeredAt: 120, Instances: 1, CreditsBilled: 2},
			{BatchID: "b001", Completed: true, CompletionTime: ct1, TriggeredAt: -1},
		}
		mutate(&r)
		store.Put(campaign.Entry{Key: j.Key(), Result: r})
	}
	same := func(*campaign.Result) {}
	put(campaign.Job{Scenario: sc}, 800, same)
	put(Job(sc), 900, same)
	cell := compareCell(sc, store)
	if want := "batch b001 CompletionTime: sim 800, emul 900"; cell.Pass || cell.Diff != want {
		t.Errorf("only the completion of one batch differs: pass %v, diff %q, want %q", cell.Pass, cell.Diff, want)
	}
	txt := Report{Profile: "quick", Cells: []Cell{cell}}.Text()
	if !strings.Contains(txt, "FAIL\n    first difference: batch b001 CompletionTime: sim 800, emul 900\n") {
		t.Errorf("report does not print the difference under the failing row:\n%s", txt)
	}
	for _, c := range []struct {
		name   string
		mutate func(*campaign.Result)
		diff   string // "" for a conforming cell
	}{
		{"equal results", same, ""},
		{"aggregate first", func(r *campaign.Result) { r.Instances, r.Batches[1].Completed = 3, false },
			"Instances: sim 1, emul 3"},
		{"one ulp of completion", func(r *campaign.Result) { r.Batches[0].CompletionTime = math.Nextafter(500, 501) },
			"batch b000 CompletionTime: sim 500, emul 500.00000000000006"},
		{"credits allocated", func(r *campaign.Result) { r.Batches[1].CreditsAllocated = 5 },
			"batch b001 CreditsAllocated: sim 0, emul 5"},
		{"tier", func(r *campaign.Result) { r.Batches[1].Tier = "free" }, "batch b001 Tier: sim , emul free"},
		{"cloud tasks", func(r *campaign.Result) { r.Batches[0].CloudTasks = 1 }, "batch b000 CloudTasks: sim 0, emul 1"},
		{"one ulp of credits billed", func(r *campaign.Result) { r.Batches[0].CreditsBilled = math.Nextafter(2, 3) },
			"batch b000 CreditsBilled: sim 2, emul 2.0000000000000004"},
	} {
		put(Job(sc), 800, c.mutate)
		if cell = compareCell(sc, store); cell.Diff != c.diff || cell.Pass != (c.diff == "") {
			t.Errorf("%s: pass %v, diff %q, want %q", c.name, cell.Pass, cell.Diff, c.diff)
		}
	}
}
