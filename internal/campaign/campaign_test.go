package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"spequlos/internal/core"
)

// tiny returns a profile small enough for unit tests.
func tiny() Profile {
	return Profile{
		Name: "tiny", BotScale: 0.02, Offsets: 2, PoolCap: 120,
		HorizonDays: 6, CreditFraction: 0.10,
	}
}

// tinyJobs plans a small paired matrix: 2 traces × 2 offsets, baseline +
// default strategy.
func tinyJobs(p Profile) []Job {
	st := core.DefaultStrategy()
	var jobs []Job
	for _, tn := range []string{"nd", "seti"} {
		for off := 0; off < p.Offsets; off++ {
			sc := Scenario{Profile: p, Middleware: XWHEP, TraceName: tn, BotClass: "SMALL", Offset: off}
			jobs = append(jobs, Job{Scenario: sc})
			scs := sc
			stCopy := st
			scs.Strategy = &stCopy
			jobs = append(jobs, Job{Scenario: scs})
		}
	}
	return jobs
}

func TestJobKeys(t *testing.T) {
	p := tiny()
	base := Job{Scenario: Scenario{Profile: p, Middleware: XWHEP, TraceName: "nd", BotClass: "SMALL"}}
	if base.Key() != base.Key() {
		t.Fatal("key not stable")
	}
	st := core.DefaultStrategy()
	speq := base
	speq.Scenario.Strategy = &st
	if base.Key() == speq.Key() {
		t.Fatal("strategy must change the key")
	}
	off := base
	off.Scenario.Offset = 1
	if base.Key() == off.Key() {
		t.Fatal("offset must change the key")
	}
	cfg300 := core.Config{Strategy: core.DefaultStrategy(), MonitorPeriod: 300}
	variant := base
	variant.Variant, variant.Config = "period=300s", &cfg300
	if base.Key() == variant.Key() {
		t.Fatal("variant configuration must change the key")
	}
	series := base
	series.KeepSeries = true
	if base.Key() != series.Key() {
		t.Fatal("KeepSeries must NOT change the key (same simulation)")
	}
	// Simulation-affecting profile parameters participate in the key, so a
	// stale store never silently serves results for a re-scaled profile.
	scaled := base
	scaled.Scenario.Profile.PoolCap *= 2
	if base.Key() == scaled.Key() {
		t.Fatal("profile parameters must change the key")
	}
	// Two variant configurations whose labels format identically must not
	// collide: the key includes the actual configuration.
	cfgA := core.Config{Strategy: core.DefaultStrategy(), MonitorPeriod: 59.6}
	cfgB := core.Config{Strategy: core.DefaultStrategy(), MonitorPeriod: 60.4}
	va, vb := base, base
	va.Variant, va.Config = "period=60s", &cfgA
	vb.Variant, vb.Config = "period=60s", &cfgB
	if va.Key() == vb.Key() {
		t.Fatal("variant configs with equal labels must key differently")
	}
	fa, fb := 0.052, 0.048
	ca, cb := base, base
	cfg := core.Config{Strategy: core.DefaultStrategy(), MonitorPeriod: 60}
	ca.Variant, ca.Config, ca.CreditFraction = "credits=5%", &cfg, &fa
	cb.Variant, cb.Config, cb.CreditFraction = "credits=5%", &cfg, &fb
	if ca.Key() == cb.Key() {
		t.Fatal("variant credit fractions with equal labels must key differently")
	}
	// Strategy labels are not injective: two triggers sharing the code 9C
	// must still key differently.
	tgA := core.Config{Strategy: core.Strategy{
		Trigger: core.CompletionThreshold{Frac: 0.9}, Sizing: core.Conservative{}, Deploy: core.Reschedule},
		MonitorPeriod: 60}
	tgB := tgA
	tgB.Strategy.Trigger = core.CompletionThreshold{Frac: 0.88}
	ta, tb := base, base
	ta.Variant, ta.Config = "trigger=9C", &tgA
	tb.Variant, tb.Config = "trigger=9C", &tgB
	if ta.Key() == tb.Key() {
		t.Fatal("triggers sharing a label code must key differently")
	}
	// Conversely, a variant configured exactly like a plain strategy run
	// deduplicates with it: same simulation, one execution.
	stDefault := core.DefaultStrategy()
	plain := base
	plain.Scenario.Strategy = &stDefault
	cfFrac := base.Scenario.Profile.CreditFraction
	equiv := base
	equiv.Variant, equiv.Config, equiv.CreditFraction = "credits=10%",
		&core.Config{Strategy: core.DefaultStrategy(), MonitorPeriod: 60}, &cfFrac
	if plain.Key() != equiv.Key() {
		t.Fatalf("config-identical variant must dedupe with the plain run:\n%s\n%s",
			plain.Key(), equiv.Key())
	}
}

func TestPlanDeduplicates(t *testing.T) {
	p := tiny()
	jobs := tinyJobs(p)
	plan := NewPlan()
	plan.Add(jobs...)
	plan.Add(jobs...) // second consumer planning the same cells
	if plan.Len() != len(jobs) {
		t.Fatalf("plan = %d jobs, want %d", plan.Len(), len(jobs))
	}
	// A duplicate with KeepSeries upgrades the planned job.
	withSeries := jobs[0]
	withSeries.KeepSeries = true
	plan.Add(withSeries)
	if plan.Len() != len(jobs) {
		t.Fatal("KeepSeries duplicate must not add a job")
	}
	if !plan.Jobs()[0].KeepSeries {
		t.Fatal("KeepSeries must merge into the planned job")
	}
}

func TestExecuteMatchesRun(t *testing.T) {
	sc := Scenario{Profile: tiny(), Middleware: XWHEP, TraceName: "nd", BotClass: "SMALL"}
	a := Run(sc)
	b := Execute(Job{Scenario: sc}).Result
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("Execute diverges from Run: %+v vs %+v", a, b)
	}
}

// TestCampaignExactlyOnce asserts the acceptance criterion: every planned
// unique job executes exactly once, duplicates and re-runs execute zero
// times.
func TestCampaignExactlyOnce(t *testing.T) {
	p := tiny()
	jobs := tinyJobs(p)
	doubled := append(append([]Job{}, jobs...), jobs...) // every consumer plans its slice
	store := NewResultStore()
	c := New(p, doubled...)
	stats, err := c.Run(context.Background(), store)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Planned != len(jobs) || stats.Executed != len(jobs) || stats.Cached != 0 {
		t.Fatalf("first run: %+v, want %d executed", stats, len(jobs))
	}
	if store.Len() != len(jobs) {
		t.Fatalf("store = %d entries, want %d", store.Len(), len(jobs))
	}
	// Re-running the same campaign over the filled store simulates nothing.
	stats2, err := New(p, jobs...).Run(context.Background(), store)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Executed != 0 || stats2.Cached != len(jobs) {
		t.Fatalf("resume run executed %d jobs, want 0 (%+v)", stats2.Executed, stats2)
	}
}

// TestCampaignDeterministicAcrossParallelism asserts the satellite
// criterion: the same campaign run on 1 and 8 workers (GOMAXPROCS) produces
// identical ResultStore contents.
func TestCampaignDeterministicAcrossParallelism(t *testing.T) {
	p := tiny()
	jobs := tinyJobs(p)
	var bufs [2]bytes.Buffer
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for i, workers := range []int{1, 8} {
		runtime.GOMAXPROCS(workers)
		store := NewResultStore()
		c := New(p, jobs...)
		if _, err := c.Run(context.Background(), store); err != nil {
			t.Fatal(err)
		}
		if err := store.Save(&bufs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(bufs[0].Bytes(), bufs[1].Bytes()) {
		t.Fatal("store contents differ between 1 and 8 workers")
	}
}

func TestStoreSaveLoadRoundTrip(t *testing.T) {
	p := tiny()
	jobs := tinyJobs(p)
	jobs[0].KeepSeries = true
	store, err := runStore(p, jobs)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := store.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded := NewResultStore()
	if err := loaded.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != store.Len() {
		t.Fatalf("loaded %d entries, want %d", loaded.Len(), store.Len())
	}
	var buf2 bytes.Buffer
	if err := loaded.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("save→load→save not idempotent")
	}
	// A campaign over the loaded store resumes fully cached.
	stats, err := New(p, jobs...).Run(context.Background(), loaded)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Executed != 0 {
		t.Fatalf("loaded store re-executed %d jobs", stats.Executed)
	}
	if e, _ := loaded.Get(jobs[0].Key()); len(e.Series) == 0 {
		t.Fatal("completion series lost in round-trip")
	}
}

// TestStoreLayout: Save writes the header, one json.Marshal-ed entry per
// line and the closing brackets, and a store in the indented layout older
// versions wrote loads to the same entries as the one Save writes, and saves
// back to the same bytes.
func TestStoreLayout(t *testing.T) {
	p := tiny()
	jobs := tinyJobs(p)
	jobs[0].KeepSeries = true
	store, err := runStore(p, jobs)
	if err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := store.Save(&saved); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(saved.String(), "\n")
	entries := store.Entries()
	if len(lines) != len(entries)+3 || lines[0] != `{"version":1,"entries":[` || lines[len(lines)-2] != "]}" || lines[len(lines)-1] != "" {
		t.Fatalf("layout: %d lines for %d entries, header %q, trailer %q", len(lines), len(entries), lines[0], lines[len(lines)-2:])
	}
	for i, e := range entries {
		want, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		if i < len(entries)-1 {
			want = append(want, ',')
		}
		if lines[i+1] != string(want) {
			t.Errorf("line %d is not entry %q as json.Marshal encodes it", i+1, e.Key)
		}
	}

	indented, err := json.MarshalIndent(storeFile{Version: storeVersion, Entries: entries}, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	fromIndented, fromSaved := NewResultStore(), NewResultStore()
	if err := fromIndented.Load(bytes.NewReader(indented)); err != nil {
		t.Fatal(err)
	}
	if err := fromSaved.Load(bytes.NewReader(saved.Bytes())); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromIndented.Entries(), fromSaved.Entries()) {
		t.Fatal("the indented layout loads to other entries than Save's")
	}
	var again bytes.Buffer
	if err := fromIndented.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), saved.Bytes()) {
		t.Fatal("a store loaded from the indented layout saves to other bytes")
	}
}

func TestStoreFilePersistence(t *testing.T) {
	p := tiny()
	jobs := tinyJobs(p)[:2]
	store, err := runStore(p, jobs)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/store.json"
	if err := store.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != store.Len() {
		t.Fatalf("loaded %d entries, want %d", loaded.Len(), store.Len())
	}
}

func TestCampaignCancellation(t *testing.T) {
	p := tiny()
	jobs := tinyJobs(p)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before any job is fed
	store := NewResultStore()
	stats, err := New(p, jobs...).Run(ctx, store)
	if err == nil {
		t.Fatal("cancelled campaign must return the context error")
	}
	if stats.Executed >= len(jobs) {
		t.Fatalf("cancelled campaign executed all %d jobs", stats.Executed)
	}
	// The partial store resumes: the second run executes only the rest.
	stats2, err := New(p, jobs...).Run(context.Background(), store)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Cached != stats.Executed || stats2.Executed != len(jobs)-stats.Executed {
		t.Fatalf("resume mismatch: first %+v then %+v", stats, stats2)
	}
	if store.Len() != len(jobs) {
		t.Fatalf("store = %d entries after resume, want %d", store.Len(), len(jobs))
	}
}

func TestCampaignProgressEvents(t *testing.T) {
	p := tiny()
	jobs := tinyJobs(p)[:4]
	var mu sync.Mutex
	var events []Event
	c := New(p, jobs...)
	c.Progress = func(ev Event) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}
	if _, err := c.Run(context.Background(), NewResultStore()); err != nil {
		t.Fatal(err)
	}
	if len(events) != len(jobs) {
		t.Fatalf("events = %d, want %d", len(events), len(jobs))
	}
	seen := map[int]bool{}
	for _, ev := range events {
		if ev.Total != len(jobs) || ev.Cached {
			t.Fatalf("bad event: %+v", ev)
		}
		seen[ev.Done] = true
	}
	for i := 1; i <= len(jobs); i++ {
		if !seen[i] {
			t.Fatalf("missing Done=%d event", i)
		}
	}
}

// TestCompletionCurveUsesRequestedMiddleware guards the fixed CONDOR
// fallback: the curve runner must build the scenario's middleware instead
// of silently substituting XWHEP.
func TestCompletionCurveUsesRequestedMiddleware(t *testing.T) {
	sc := Scenario{Profile: tiny(), Middleware: CONDOR, TraceName: "seti", BotClass: "SMALL"}
	e := Execute(Job{Scenario: sc, KeepSeries: true})
	series, res := e.Series, e.Result
	if len(series) == 0 || !res.Completed {
		t.Fatal("condor curve incomplete")
	}
	direct := Run(sc)
	if res.CompletionTime != direct.CompletionTime || res.Events != direct.Events {
		t.Fatalf("curve diverges from direct condor run: %v/%v vs %v/%v",
			res.CompletionTime, res.Events, direct.CompletionTime, direct.Events)
	}
	xwhep := Run(Scenario{Profile: tiny(), Middleware: XWHEP, TraceName: "seti", BotClass: "SMALL"})
	if res.CompletionTime == xwhep.CompletionTime && res.Events == xwhep.Events {
		t.Fatal("condor curve identical to XWHEP run — middleware fallback regressed")
	}
}

func TestVariantJobConfig(t *testing.T) {
	sc := Scenario{Profile: tiny(), Middleware: XWHEP, TraceName: "seti", BotClass: "SMALL"}
	frac := 0.05
	cfg := core.Config{Strategy: core.DefaultStrategy(), MonitorPeriod: 300}
	e := Execute(Job{Scenario: sc, Variant: "period=300s", Config: &cfg, CreditFraction: &frac})
	if !e.Result.Completed {
		t.Fatal("variant run incomplete")
	}
	if e.Result.Strategy != core.DefaultStrategy().Label() {
		t.Fatalf("variant strategy label = %q", e.Result.Strategy)
	}
	if e.Variant != "period=300s" {
		t.Fatalf("variant not recorded: %+v", e)
	}
	if e.Result.CreditsAllocated <= 0 {
		t.Fatal("variant credits not allocated")
	}
	st := core.DefaultStrategy()
	scs := sc
	scs.Strategy = &st
	std := Execute(Job{Scenario: scs}) // standard 10%-credit strategy run
	if e.Result.CreditsAllocated >= std.Result.CreditsAllocated {
		t.Fatalf("5%% variant allocated %v credits, standard run %v",
			e.Result.CreditsAllocated, std.Result.CreditsAllocated)
	}
	if Execute(Job{Scenario: sc}).Key == e.Key {
		t.Fatal("variant key collides with baseline")
	}
}

// runStore runs the jobs into a fresh store.
func runStore(p Profile, jobs []Job) (*ResultStore, error) {
	store := NewResultStore()
	_, err := New(p, jobs...).Run(context.Background(), store)
	return store, err
}
