// Benchmarks regenerating each table and figure of the paper's evaluation
// at the quick experiment scale. The simulation matrix executes ONCE per
// `go test -bench` process through the campaign engine (benchStore); the
// per-figure benchmarks measure deriving each artifact from the shared
// result store. Campaign execution itself is measured separately
// (BenchmarkCampaignExecution, BenchmarkSingleRun*); cmd/spequlos-bench
// produces the full-scale artifacts.
package spequlos

import (
	"context"
	"sync"
	"testing"
	"time"

	"spequlos/internal/bot"
	"spequlos/internal/campaign"
	"spequlos/internal/cloud"
	"spequlos/internal/core"
	"spequlos/internal/experiments"
	"spequlos/internal/middleware"
	"spequlos/internal/service"
)

// benchProfile is the quick profile with a single offset so individual
// benchmark derivations stay comparable.
func benchProfile() experiments.Profile {
	p := experiments.Quick()
	p.Offsets = 1
	return p
}

// benchSpec narrows the matrix for per-figure benchmarks: one volatile
// desktop grid, one best-effort grid, two BoT classes.
func benchSpec(strategies ...core.Strategy) experiments.MatrixSpec {
	return experiments.MatrixSpec{
		Traces:     []string{"seti", "g5klyo"},
		Bots:       []string{"SMALL", "BIG"},
		Strategies: strategies,
	}
}

// benchStrategies are the two contrasting combinations the benchmarks use
// instead of all 18, to keep the shared campaign minute-scale.
func benchStrategies() (core.Strategy, core.Strategy) {
	st1 := core.DefaultStrategy()
	st2, _ := core.StrategyByLabel("9A-G-F")
	return st1, st2
}

// benchOpts scopes the shared campaign: the bench matrix, the ablation
// sweeps and the middleware comparison, planned once and deduplicated.
func benchOpts() experiments.ArtifactOptions {
	st1, st2 := benchStrategies()
	return experiments.ArtifactOptions{
		Spec:             benchSpec(st1, st2),
		Ablations:        true,
		Comparison:       true,
		ComparisonTraces: []string{"seti"},
	}
}

var benchShared struct {
	once  sync.Once
	store *campaign.ResultStore
	err   error
}

// benchStore executes the shared quick-scale campaign once per process;
// every derivation benchmark reads from it. The campaign plans with two
// offsets (Table 4 needs several executions per environment); benchmarks
// that want a single offset derive with benchProfile().
func benchStore(b *testing.B) *campaign.ResultStore {
	b.Helper()
	benchShared.once.Do(func() {
		p := experiments.Quick()
		c := &campaign.Campaign{Profile: p, Plan: experiments.PlanArtifacts(p, benchOpts())}
		benchShared.store = campaign.NewResultStore()
		_, benchShared.err = c.Run(context.Background(), benchShared.store)
	})
	if benchShared.err != nil {
		b.Fatal(benchShared.err)
	}
	return benchShared.store
}

func BenchmarkFigure1ExecutionProfile(b *testing.B) {
	store := benchStore(b)
	p := benchProfile()
	for i := 0; i < b.N; i++ {
		f, err := experiments.Figure1From(store, p)
		if err != nil || len(f.Series) == 0 {
			b.Fatal("empty curve", err)
		}
	}
}

func BenchmarkFigure2TailSlowdownCDF(b *testing.B) {
	store := benchStore(b)
	p := benchProfile()
	for i := 0; i < b.N; i++ {
		f, err := experiments.Figure2From(store, p, benchSpec())
		if err != nil || len(f.Slowdowns) == 0 {
			b.Fatal("empty figure", err)
		}
	}
}

func BenchmarkTable1TailFractions(b *testing.B) {
	store := benchStore(b)
	p := benchProfile()
	for i := 0; i < b.N; i++ {
		t1, err := experiments.Table1From(store, p, benchSpec())
		if err != nil || len(t1.Rows) == 0 {
			b.Fatal("empty table", err)
		}
	}
}

func BenchmarkTable2TraceStatistics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.BuildTable2(2, uint64(i)+1)
		if len(rows) != 6 {
			b.Fatal("missing traces")
		}
	}
}

func BenchmarkTable3WorkloadGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// One BoT of each class at paper scale (1000 / 10000 / ~1000 tasks).
		for _, class := range bot.Classes() {
			w := class.Generate("bench", uint64(i)+1)
			if err := w.Validate(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFigure3ServiceSequence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runServiceSequence(b)
	}
}

func BenchmarkFigure4TailRemovalEfficiency(b *testing.B) {
	store := benchStore(b)
	p := benchProfile()
	st1, st2 := benchStrategies()
	for i := 0; i < b.N; i++ {
		f, err := experiments.Figure4From(store, p, benchSpec(st1, st2))
		if err != nil || len(f.TRE) == 0 {
			b.Fatal("empty figure", err)
		}
	}
}

func BenchmarkFigure5CreditConsumption(b *testing.B) {
	store := benchStore(b)
	p := benchProfile()
	st, _ := benchStrategies()
	for i := 0; i < b.N; i++ {
		f, err := experiments.Figure5From(store, p, benchSpec(st))
		if err != nil || len(f.SpentFraction) == 0 {
			b.Fatal("empty figure", err)
		}
	}
}

func BenchmarkFigure6CompletionTimes(b *testing.B) {
	store := benchStore(b)
	p := benchProfile()
	st, _ := benchStrategies()
	for i := 0; i < b.N; i++ {
		f, err := experiments.Figure6From(store, p, benchSpec(st), st.Label())
		if err != nil || len(f.Cells) == 0 {
			b.Fatal("empty figure", err)
		}
	}
}

func BenchmarkFigure7Stability(b *testing.B) {
	store := benchStore(b)
	p := benchProfile()
	st, _ := benchStrategies()
	for i := 0; i < b.N; i++ {
		f, err := experiments.Figure7From(store, p, benchSpec(st), st.Label())
		if err != nil || len(f.NoSpeq) == 0 {
			b.Fatal("empty figure", err)
		}
	}
}

func BenchmarkTable4PredictionSuccess(b *testing.B) {
	p := benchProfile()
	p.Offsets = 2 // success rates need a few executions per environment
	st, _ := benchStrategies()
	store := benchStore(b)
	for i := 0; i < b.N; i++ {
		t4, err := experiments.Table4From(store, p, benchSpec(st), st.Label())
		if err != nil || t4.Overall < 0 || t4.Overall > 1 {
			b.Fatal("invalid success rate", err)
		}
	}
}

func BenchmarkTable5EDGIDeployment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t5 := experiments.BuildTable5(2, 6, uint64(i)+1)
		if t5.LALTasks == 0 {
			b.Fatal("no tasks executed")
		}
	}
}

// BenchmarkCampaignExecution measures the campaign engine end-to-end: plan
// the bench matrix and execute every unique job into a fresh store.
func BenchmarkCampaignExecution(b *testing.B) {
	p := benchProfile()
	st, _ := benchStrategies()
	jobs := benchSpec(st).Jobs(p)
	for i := 0; i < b.N; i++ {
		store, stats, err := campaign.RunCampaign(context.Background(), p, jobs)
		if err != nil || store.Len() != stats.Executed || stats.Executed != len(jobs) {
			b.Fatalf("campaign broken: %v %+v", err, stats)
		}
	}
}

func BenchmarkSingleRunXWHEPSeti(b *testing.B) {
	b.ReportAllocs()
	p := benchProfile()
	for i := 0; i < b.N; i++ {
		res := Simulate(Scenario{
			Profile: p, Middleware: "XWHEP", TraceName: "seti", BotClass: "SMALL",
			Offset: i,
		})
		if !res.Completed {
			b.Fatal("incomplete")
		}
	}
}

// BenchmarkSingleRunStressSeti measures one stress-profile simulation: 10×
// the quick worker churn (2500-node pool) over a 30-day horizon, the
// configuration that exercises the pooled event kernel at BOINC-like host
// volumes.
func BenchmarkSingleRunStressSeti(b *testing.B) {
	b.ReportAllocs()
	p := experiments.Stress()
	for i := 0; i < b.N; i++ {
		res := Simulate(Scenario{
			Profile: p, Middleware: "XWHEP", TraceName: "seti", BotClass: "SMALL",
			Offset: i,
		})
		if !res.Completed {
			b.Fatal("incomplete")
		}
	}
}

func BenchmarkSingleRunBOINCSeti(b *testing.B) {
	b.ReportAllocs()
	p := benchProfile()
	for i := 0; i < b.N; i++ {
		res := Simulate(Scenario{
			Profile: p, Middleware: "BOINC", TraceName: "seti", BotClass: "SMALL",
			Offset: i,
		})
		if !res.Completed {
			b.Fatal("incomplete")
		}
	}
}

// scriptedBenchDG drives the HTTP service benchmark.
type scriptedBenchDG struct{ done int }

func (d *scriptedBenchDG) Progress(string) (middleware.Progress, error) {
	return middleware.Progress{Size: 100, Arrived: 100, Completed: d.done,
		EverAssigned: 100, Running: 100 - d.done}, nil
}
func (d *scriptedBenchDG) WorkerURL() string { return "http://dg.bench" }

// runServiceSequence executes the Fig 3 interaction sequence over HTTP.
func runServiceSequence(b *testing.B) {
	dg := &scriptedBenchDG{}
	stack := service.NewTestStack(service.StackConfig{
		Strategy: core.DefaultStrategy(),
		Registry: cloud.NewRegistry(cloud.NewMockEC2()),
		DG:       dg,
	})
	defer stack.Close()
	now := time.Unix(1_700_000_000, 0)
	stack.Scheduler.Now = func() time.Time { return now }

	if err := stack.CreditClient.Deposit("u", 1000); err != nil {
		b.Fatal(err)
	}
	if err := stack.Scheduler.RegisterQoS(service.QoSRequest{
		User: "u", BatchID: "bench", EnvKey: "e", Size: 100,
		Credits: 100, Provider: "ec2", Image: "img",
	}); err != nil {
		b.Fatal(err)
	}
	for _, done := range []int{20, 50, 91, 95, 100} {
		dg.done = done
		now = now.Add(time.Minute)
		if err := stack.Scheduler.Step(); err != nil {
			b.Fatal(err)
		}
	}
	st, err := stack.Scheduler.Status("bench")
	if err != nil || !st.Finalized {
		b.Fatalf("sequence incomplete: %+v %v", st, err)
	}
}

func BenchmarkAblationCreditFraction(b *testing.B) {
	store := benchStore(b)
	p := benchProfile()
	for i := 0; i < b.N; i++ {
		pts, err := experiments.CreditFractionSweepFrom(store, p, nil)
		if err != nil || len(pts) != 4 {
			b.Fatal("sweep broken", err)
		}
	}
}

func BenchmarkAblationMonitorPeriod(b *testing.B) {
	store := benchStore(b)
	p := benchProfile()
	for i := 0; i < b.N; i++ {
		pts, err := experiments.MonitorPeriodSweepFrom(store, p, nil)
		if err != nil || len(pts) != 4 {
			b.Fatal("sweep broken", err)
		}
	}
}

func BenchmarkAblationCapacityTrigger(b *testing.B) {
	store := benchStore(b)
	p := benchProfile()
	for i := 0; i < b.N; i++ {
		pts, err := experiments.TriggerAblationFrom(store, p)
		if err != nil || len(pts) != 2 {
			b.Fatal("ablation broken", err)
		}
	}
}

func BenchmarkExtensionMiddlewareComparison(b *testing.B) {
	store := benchStore(b)
	p := benchProfile()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.CompareMiddlewareFrom(store, p, []string{"seti"}, "BIG")
		if err != nil || len(rows) != 3 {
			b.Fatal("comparison broken", err)
		}
	}
}
