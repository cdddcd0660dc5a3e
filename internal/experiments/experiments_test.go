package experiments

import (
	"bytes"
	"context"
	"slices"
	"strings"
	"testing"

	"spequlos/internal/campaign"
	"spequlos/internal/core"
	"spequlos/internal/stats"
	"spequlos/internal/trace"
)

// tiny returns a profile small enough for unit tests.
func tiny() Profile {
	return Profile{
		Name: "tiny", BotScale: 0.02, Offsets: 1, PoolCap: 120,
		HorizonDays: 6, CreditFraction: 0.10,
	}
}

// runStore executes the jobs once through the campaign engine into a fresh
// store; the tests then derive from it with the *From builders, the only
// builders there are.
func runStore(t *testing.T, p Profile, jobs ...campaign.Job) *campaign.ResultStore {
	t.Helper()
	store := campaign.NewResultStore()
	if _, err := campaign.New(p, jobs...).Run(context.Background(), store); err != nil {
		t.Fatal(err)
	}
	return store
}

// must unwraps a builder's (value, error) pair; an error here means the
// campaign that just ran did not fill the store, so it panics like the
// run-and-derive wrappers it replaces did.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func TestTraceSourceResolution(t *testing.T) {
	for _, name := range TraceNames() {
		if _, err := TraceSource(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := TraceSource("nonexistent"); err == nil {
		t.Error("bogus trace resolved")
	}
}

func TestProfileByName(t *testing.T) {
	for _, name := range []string{"quick", "standard", "full"} {
		p, err := ProfileByName(name)
		if err != nil || p.Name != name {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := ProfileByName("huge"); err == nil {
		t.Error("bogus profile resolved")
	}
}

func TestRunBaselineDeterministic(t *testing.T) {
	sc := Scenario{Profile: tiny(), Middleware: XWHEP, TraceName: "nd", BotClass: "SMALL", Offset: 0}
	a := Run(sc)
	b := Run(sc)
	if !a.Completed || !b.Completed {
		t.Fatal("runs incomplete")
	}
	if a.CompletionTime != b.CompletionTime || a.Events != b.Events {
		t.Fatalf("non-deterministic: %v/%v vs %v/%v events",
			a.CompletionTime, a.Events, b.CompletionTime, b.Events)
	}
}

func TestPairedSeedBaseUnchanged(t *testing.T) {
	// Adding SpeQuloS must not change anything before the trigger: the
	// trace and workload are identical (verified via the identical tc(50)
	// base, which SpeQuloS cannot affect with a 90% trigger).
	sc := Scenario{Profile: tiny(), Middleware: XWHEP, TraceName: "seti", BotClass: "SMALL", Offset: 0}
	base := Run(sc)
	st := core.DefaultStrategy()
	sc.Strategy = &st
	speq := Run(sc)
	if !base.Completed || !speq.Completed {
		t.Fatal("incomplete runs")
	}
	if base.Size != speq.Size {
		t.Fatal("workloads differ between paired runs")
	}
	if base.TC50Base != speq.TC50Base {
		t.Fatalf("pre-trigger behaviour differs: %v vs %v", base.TC50Base, speq.TC50Base)
	}
	if speq.CompletionTime > base.CompletionTime {
		t.Fatalf("SpeQuloS slower than baseline: %v > %v", speq.CompletionTime, base.CompletionTime)
	}
}

func TestRunMatrixShape(t *testing.T) {
	p := tiny()
	p.Offsets = 2
	spec := MatrixSpec{
		Middlewares: []string{XWHEP},
		Traces:      []string{"nd", "spot10"},
		Bots:        []string{"BIG"},
		Strategies:  []core.Strategy{core.DefaultStrategy()},
	}
	m := must(MatrixFrom(runStore(t, p, spec.Jobs(p)...), p, spec))
	if len(m.Pairs) != 4 { // 1 mw × 2 traces × 1 bot × 2 offsets
		t.Fatalf("pairs = %d, want 4", len(m.Pairs))
	}
	if len(m.Strategies) != 1 || m.Strategies[0] != "9C-C-R" {
		t.Fatalf("strategies = %v", m.Strategies)
	}
	for i, pair := range m.Pairs {
		if !pair.Base.Completed || pair.Base.Strategy != "" {
			t.Fatalf("pair %d baseline incomplete or not a baseline: %+v", i, pair.Base)
		}
		if r, ok := pair.Speq["9C-C-R"]; !ok || r.Strategy != "9C-C-R" {
			t.Fatalf("pair %d missing strategy run", i)
		}
	}
}

func TestFiguresFromMatrix(t *testing.T) {
	p := tiny()
	spec := MatrixSpec{
		Traces:     []string{"seti", "g5klyo"},
		Bots:       []string{"SMALL", "BIG"},
		Strategies: []core.Strategy{core.DefaultStrategy()},
	}
	store := runStore(t, p, spec.Jobs(p)...)

	f2 := must(Figure2From(store, p, spec))
	if len(f2.Slowdowns[BOINC]) == 0 || len(f2.Slowdowns[XWHEP]) == 0 {
		t.Fatal("figure 2 empty")
	}
	if f2.FractionBelow(BOINC, 1e9) != 1 {
		t.Fatal("CDF must reach 1")
	}
	if !strings.Contains(f2.Render(), "Figure 2") {
		t.Fatal("render broken")
	}

	t1 := must(Table1From(store, p, spec))
	if len(t1.Rows) == 0 || !strings.Contains(t1.Render(), "Table 1") {
		t.Fatal("table 1 broken")
	}

	f4 := must(Figure4From(store, p, spec))
	if len(f4.TRE["9C-C-R"]) == 0 {
		t.Fatal("figure 4 empty")
	}
	for _, v := range f4.TRE["9C-C-R"] {
		if v < 0 || v > 1 {
			t.Fatalf("TRE out of bounds: %v", v)
		}
	}
	if !strings.Contains(f4.Render(), "9C-C-R") {
		t.Fatal("figure 4 render broken")
	}

	f5 := must(Figure5From(store, p, spec))
	if frac, ok := f5.SpentFraction["9C-C-R"]; !ok || frac < 0 || frac > 1 {
		t.Fatalf("figure 5 spent fraction: %v %v", frac, ok)
	}
	if !strings.Contains(f5.Render(), "credits") {
		t.Fatal("figure 5 render broken")
	}

	f6 := must(Figure6From(store, p, spec, "9C-C-R"))
	found := false
	for _, byBot := range f6.Cells {
		for _, byTrace := range byBot {
			for _, c := range byTrace {
				found = true
				if c.Speq > c.NoSpeq {
					t.Fatalf("figure 6 cell slower with SpeQuloS: %+v", c)
				}
			}
		}
	}
	if !found {
		t.Fatal("figure 6 empty")
	}
	if !strings.Contains(f6.Render(), "Figure 6") {
		t.Fatal("figure 6 render broken")
	}

	f7 := must(Figure7From(store, p, spec, "9C-C-R"))
	if len(f7.NoSpeq) == 0 {
		t.Fatal("figure 7 empty")
	}
	if !strings.Contains(f7.Render(), "stability") {
		t.Fatal("figure 7 render broken")
	}

	t4 := must(Table4From(store, p, spec, "9C-C-R"))
	if t4.Overall < 0 || t4.Overall > 1 {
		t.Fatalf("table 4 overall = %v", t4.Overall)
	}
	if !strings.Contains(t4.Render(), "Table 4") {
		t.Fatal("table 4 render broken")
	}
}

func TestFigure1(t *testing.T) {
	p := tiny()
	f := must(Figure1From(runStore(t, p, Figure1Job(p)), p))
	if len(f.Series) == 0 {
		t.Fatal("figure 1 empty")
	}
	last := f.Series[len(f.Series)-1]
	if last.Ratio != 1 {
		t.Fatalf("curve must end at ratio 1, got %v", last.Ratio)
	}
	for i := 1; i < len(f.Series); i++ {
		if f.Series[i].T < f.Series[i-1].T || f.Series[i].Ratio < f.Series[i-1].Ratio {
			t.Fatal("curve not monotone")
		}
	}
	if !strings.Contains(f.Render(), "slowdown") {
		t.Fatal("figure 1 render broken")
	}
}

func TestTable2Validation(t *testing.T) {
	rows := BuildTable2(4, 99)
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	for _, r := range rows {
		rel := (r.MeanNodes - r.PublishedMean) / r.PublishedMean
		if rel < -0.5 || rel > 0.5 {
			t.Errorf("%s: mean nodes %.1f vs published %.1f", r.Name, r.MeanNodes, r.PublishedMean)
		}
		if r.PowerMean < r.PublishedPower*0.8 || r.PowerMean > r.PublishedPower*1.2 {
			t.Errorf("%s: power %.0f vs published %.0f", r.Name, r.PowerMean, r.PublishedPower)
		}
	}
	if !strings.Contains(RenderTable2(rows), "Table 2") {
		t.Fatal("table 2 render broken")
	}
}

func TestTextTable(t *testing.T) {
	tbl := TextTable{Title: "T", Headers: []string{"a", "bb"}}
	tbl.AddRow("1", "2")
	out := tbl.String()
	if !strings.Contains(out, "T\n") || !strings.Contains(out, "a") {
		t.Fatalf("render: %q", out)
	}
}

func TestEnvKeyAndSeed(t *testing.T) {
	sc := Scenario{Profile: tiny(), Middleware: BOINC, TraceName: "nd", BotClass: "BIG", Offset: 1}
	if sc.EnvKey() != "BOINC/nd/BIG" {
		t.Fatalf("env key = %s", sc.EnvKey())
	}
	sc2 := sc
	sc2.Offset = 2
	if sc.Seed() == sc2.Seed() {
		t.Fatal("offsets must change the seed")
	}
	st := core.DefaultStrategy()
	sc3 := sc
	sc3.Strategy = &st
	if sc.Seed() != sc3.Seed() {
		t.Fatal("strategy must NOT change the seed (paired comparison)")
	}
}

func TestTable5EDGI(t *testing.T) {
	t5, err := BuildTable5(42)
	if err != nil {
		t.Fatal(err)
	}
	if t5.BoTs != 12 {
		t.Fatalf("BoTs = %d, want 12", t5.BoTs)
	}
	if t5.LALTasks == 0 || t5.LRITasks == 0 {
		t.Fatalf("no tasks executed: %+v", t5)
	}
	if t5.EGITasks == 0 {
		t.Fatalf("no EGI-bridged tasks completed: %+v", t5)
	}
	// Cloud counters can be zero on lucky runs but the fields must be sane.
	if t5.StratusLabTasks < 0 || t5.EC2Tasks < 0 {
		t.Fatalf("negative cloud counters: %+v", t5)
	}
	if t5.StratusLabTasks > t5.LALTasks || t5.EC2Tasks > t5.LRITasks {
		t.Fatalf("cloud executed more than its DG total: %+v", t5)
	}
	if t5.EGITasks >= t5.LALTasks {
		t.Fatalf("EGI is half of XW@LAL's BoTs, not all of them: %+v", t5)
	}
	if !strings.Contains(t5.Render(), "Table 5") {
		t.Fatal("render broken")
	}

	// Table 5 reads the store like every other artifact: without its two
	// cells, derivation fails and names what is missing.
	_, err = Table5From(campaign.NewResultStore(), 42)
	if err == nil || !strings.Contains(err.Error(), "missing Table 5 cell") {
		t.Fatalf("Table5From on an empty store: %v", err)
	}
	p, opts := tiny(), ArtifactOptions{Spec: tinyArtifactOpts().Spec, Table5Seed: 42}
	table5 := map[string]bool{}
	for _, j := range Table5Jobs(42) {
		table5[j.Key()] = true
	}
	plan := PlanArtifacts(p, opts).Jobs()
	jobs := slices.DeleteFunc(slices.Clone(plan), func(j campaign.Job) bool { return table5[j.Key()] })
	if len(jobs) != len(plan)-2 {
		t.Fatalf("the plan holds %d of Table 5's 2 cells", len(plan)-len(jobs))
	}
	if _, err := DeriveArtifacts(runStore(t, p, jobs...), p, opts); err == nil || !strings.Contains(err.Error(), "table5: experiments: store missing Table 5 cell") {
		t.Fatalf("deriving without the Table 5 cells: %v", err)
	}
}

func TestCreditFractionSweep(t *testing.T) {
	p := tiny()
	store := runStore(t, p, ablationJobs(p, creditSettings(p))...)
	pts := must(ablationFrom(store, p, creditSettings(p)))
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, pt := range pts {
		if pt.Runs == 0 {
			t.Fatalf("no runs for %s", pt.Setting)
		}
		if pt.MeanSpeedup < 1 {
			t.Fatalf("%s: speedup %v < 1 (SpeQuloS made things worse)", pt.Setting, pt.MeanSpeedup)
		}
		if pt.MeanTRE < 0 || pt.MeanTRE > 1 {
			t.Fatalf("%s: TRE %v out of range", pt.Setting, pt.MeanTRE)
		}
	}
	if !strings.Contains(RenderAblation("x", pts), "credits=10%") {
		t.Fatal("render broken")
	}
}

func TestMonitorPeriodSweep(t *testing.T) {
	p := tiny()
	store := runStore(t, p, ablationJobs(p, periodSettings(p))...)
	pts := must(ablationFrom(store, p, periodSettings(p)))
	if len(pts) != 4 {
		t.Fatalf("points = %+v", pts)
	}
	for _, pt := range pts {
		if pt.Runs == 0 {
			t.Fatalf("no runs for %s", pt.Setting)
		}
	}
	// Slower monitoring can only delay the trigger: the 15-minute loop
	// (the last setting) must not beat the 1-minute loop (the second).
	if pts[3].MeanTRE > pts[1].MeanTRE+0.10 {
		t.Fatalf("15-min monitoring beat 1-min: %+v", pts)
	}
}

func TestTriggerAblation(t *testing.T) {
	p := tiny()
	store := runStore(t, p, ablationJobs(p, triggerSettings(p))...)
	pts := must(ablationFrom(store, p, triggerSettings(p)))
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, pt := range pts {
		if pt.Runs == 0 {
			t.Fatalf("no runs for %s", pt.Setting)
		}
	}
}

func TestChartBuilders(t *testing.T) {
	p := tiny()
	spec := MatrixSpec{
		Traces:     []string{"seti"},
		Bots:       []string{"SMALL"},
		Strategies: []core.Strategy{core.DefaultStrategy()},
	}
	store := runStore(t, p, append(spec.Jobs(p), Figure1Job(p))...)

	f1 := must(Figure1From(store, p))
	var buf bytes.Buffer
	if err := Figure1Chart(f1).WriteSVG(&buf); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := Figure2Chart(must(Figure2From(store, p, spec))).WriteSVG(&buf); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	f4 := must(Figure4From(store, p, spec))
	if err := Figure4Chart(f4, "R").WriteSVG(&buf); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := Figure5Chart(must(Figure5From(store, p, spec))).WriteSVG(&buf); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	f6 := must(Figure6From(store, p, spec, "9C-C-R"))
	for mw := range f6.Cells {
		for bc := range f6.Cells[mw] {
			if err := Figure6Chart(f6, mw, bc).WriteSVG(&buf); err != nil {
				t.Fatal(err)
			}
			buf.Reset()
		}
	}
	f7 := must(Figure7From(store, p, spec, "9C-C-R"))
	if err := Figure7Chart(f7, BOINC).WriteSVG(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty svg")
	}
}

func TestCondorScenarioRuns(t *testing.T) {
	sc := Scenario{Profile: tiny(), Middleware: CONDOR, TraceName: "seti", BotClass: "SMALL", Offset: 0}
	base := Run(sc)
	if !base.Completed {
		t.Fatal("condor baseline incomplete")
	}
	st := core.DefaultStrategy()
	sc.Strategy = &st
	speq := Run(sc)
	if !speq.Completed {
		t.Fatal("condor SpeQuloS run incomplete")
	}
	if speq.CompletionTime > base.CompletionTime {
		t.Fatalf("SpeQuloS slower on condor: %v > %v", speq.CompletionTime, base.CompletionTime)
	}
}

func TestCompareMiddleware(t *testing.T) {
	p := tiny()
	store := runStore(t, p, comparisonSpec.Jobs(p)...)
	rows := must(CompareMiddlewareFrom(store, p))
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	byMW := map[string]MiddlewareComparisonRow{}
	for _, r := range rows {
		if r.Runs == 0 {
			t.Fatalf("%s: no completed runs", r.Middleware)
		}
		byMW[r.Middleware] = r
	}
	// Condor's fast detection + checkpointing must not be slower than
	// BOINC's deadline-based recovery on a volatile desktop grid.
	if byMW[CONDOR].MeanCompletion > byMW[BOINC].MeanCompletion*1.5 {
		t.Fatalf("condor %v vs boinc %v: checkpoint/migration should compete",
			byMW[CONDOR].MeanCompletion, byMW[BOINC].MeanCompletion)
	}
	if !strings.Contains(RenderMiddlewareComparison(rows), "CONDOR") {
		t.Fatal("render broken")
	}
}

// TestFigure2P95UnderItsMiddleware: each p95 row puts its value under its
// own middleware's column and leaves the other one blank.
func TestFigure2P95UnderItsMiddleware(t *testing.T) {
	for _, f := range []Figure2{
		{Slowdowns: map[string][]float64{BOINC: {1.5, 2.61}, XWHEP: {3.5, 4.25}}},
		{Slowdowns: map[string][]float64{BOINC: {1.5, 2.61}}},
	} {
		lines := strings.Split(f.Render(), "\n")
		header := lines[1]
		for mw, xs := range f.Slowdowns {
			want := f2(stats.QuantileSorted(xs, 0.95))
			row := ""
			for _, l := range lines {
				if strings.HasPrefix(l, "p95:"+mw) {
					row = l
				}
			}
			if got := strings.Fields(row); len(got) != 2 || strings.Index(row, want) != strings.Index(header, mw) {
				t.Errorf("p95 row of %s is %q; want %s under the %s column of %q", mw, row, want, mw, header)
			}
		}
	}
}

// TestTable1EmptyClassIsADash: a class or middleware with no executions
// renders "-", not a 0.0% that reads like a measurement.
func TestTable1EmptyClassIsADash(t *testing.T) {
	tbl := Table1{Rows: map[trace.Class]map[string]table1Cell{
		trace.ClassDesktopGrid:    {BOINC: {TaskFrac: 0.05, TimeFrac: 0.4, N: 2}},
		trace.ClassBestEffortGrid: {BOINC: {N: 1}, XWHEP: {TaskFrac: 0.02, TimeFrac: 0.3, N: 1}},
	}}
	want := map[trace.Class][]string{
		trace.ClassDesktopGrid:    {"5.0%", "-", "40.0%", "-"},
		trace.ClassBestEffortGrid: {"0.0%", "2.0%", "0.0%", "30.0%"},
		trace.ClassSpotInstances:  {"-", "-", "-", "-"},
	}
	out := tbl.Render()
	for cls, cells := range want {
		found := false
		for _, l := range strings.Split(out, "\n") {
			if rest, ok := strings.CutPrefix(l, string(cls)); ok {
				found = true
				if got := strings.Fields(rest); strings.Join(got, " ") != strings.Join(cells, " ") {
					t.Errorf("%s: cells %q, want %q", cls, got, cells)
				}
			}
		}
		if !found {
			t.Errorf("no %s row in\n%s", cls, out)
		}
	}
}
