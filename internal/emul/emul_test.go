package emul

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"spequlos/internal/campaign"
	"spequlos/internal/cloud"
	"spequlos/internal/core"
	"spequlos/internal/middleware"
	"spequlos/internal/sim"
	"spequlos/internal/xwhep"
)

func quickScenario(mw, tn, label string) campaign.Scenario {
	st, err := core.StrategyByLabel(label)
	if err != nil {
		panic(err)
	}
	return campaign.Scenario{
		Profile: campaign.Quick(), Middleware: mw, TraceName: tn,
		BotClass: "SMALL", Offset: 0, Strategy: &st,
	}
}

// TestRunCellMatchesSimulator is the single-cell conformance check: the
// deployable HTTP stack on the virtual clock must reproduce the in-process
// simulator's result, as the one comparator (compareCell) reads the two.
func TestRunCellMatchesSimulator(t *testing.T) {
	sc := quickScenario("XWHEP", "seti", "9C-C-R")
	store := campaign.NewResultStore()
	for _, j := range []campaign.Job{{Scenario: sc}, Job(sc)} {
		store.Put(campaign.Execute(j))
	}
	cell := compareCell(sc, store)
	if !cell.Pass {
		t.Fatalf("diverged (diff=%q err=%q)\n  sim:  %+v\n  emul: %+v", cell.Diff, cell.Err, cell.Sim, cell.Emul)
	}
	if !cell.Emul.Completed || cell.Emul.Events == 0 {
		t.Errorf("the emulated cell did not run: %+v", cell.Emul)
	}
}

// TestRunCellDeterministic: two emulated runs of the same scenario are
// identical.
func TestRunCellDeterministic(t *testing.T) {
	sc := quickScenario("BOINC", "seti", "9C-C-R")
	a, err := RunCell(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCell(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("nondeterministic emulation:\n a=%+v\n b=%+v", a, b)
	}
}

// countingTransport counts the Credit order reads (GET /credit/orders/{id})
// a stack's clients send.
type countingTransport struct {
	base       http.RoundTripper
	orderReads *atomic.Int64
}

func (c countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/credit/orders/") {
		c.orderReads.Add(1)
	}
	return c.base.RoundTrip(r)
}

// TestZeroCreditCellReadsNoOrder: a cell whose batches get no credits places
// no order, so reading its usage back asks Credit for none — the Scheduler's
// record says the batch has no order — and it reports zero credits, as the
// in-process cell does. The same cell with credits reads its one order.
func TestZeroCreditCellReadsNoOrder(t *testing.T) {
	for _, c := range []struct {
		fraction float64
		reads    int64
	}{{campaign.Quick().CreditFraction, 1}, {0, 0}} {
		sc := quickScenario("XWHEP", "seti", "9C-C-R")
		sc.Profile.CreditFraction = c.fraction
		var orderReads atomic.Int64
		open := func(eng *sim.Engine, primary middleware.Server, cl *cloud.SimCloud, cfg core.Config) campaign.Backend {
			b := HTTPStack(eng, primary, cl, cfg).(*HTTPBackend)
			b.stack.HTTP.Transport = countingTransport{base: b.stack.HTTP.Transport, orderReads: &orderReads}
			return b
		}
		emulated := campaign.Execute(campaign.Job{Scenario: sc, Backend: open})
		if emulated.Err != "" {
			t.Fatal(emulated.Err)
		}
		if n := orderReads.Load(); n != c.reads {
			t.Errorf("credit fraction %g: reading the usage back made %d order reads, want %d", c.fraction, n, c.reads)
		}
		if c.fraction > 0 {
			continue
		}
		if r := emulated.Result; !r.Completed || r.Events == 0 || r.CreditsBilled != 0 || r.CreditsAllocated != 0 {
			t.Errorf("zero-credit cell: %+v, want completed with no credits", r)
		}
		// No cloud worker runs, so no clock rounding parts the two.
		if inProcess := campaign.Execute(campaign.Job{Scenario: sc}).Result; !reflect.DeepEqual(inProcess, emulated.Result) {
			t.Errorf("the deployments part:\n  sim:  %+v\n  emul: %+v", inProcess, emulated.Result)
		}
	}
}

func TestRunCellRequiresStrategy(t *testing.T) {
	sc := quickScenario("XWHEP", "seti", "9C-C-R")
	sc.Strategy = nil
	if _, err := RunCell(sc); err == nil {
		t.Fatal("baseline scenario accepted")
	}
}

// TestGatewayHTTP exercises the DG wire protocol: progress and worker-url
// over real HTTP, plus error paths.
func TestGatewayHTTP(t *testing.T) {
	eng := sim.NewEngine()
	primary := xwhep.New(eng, xwhep.DefaultConfig())
	simCl := cloud.NewSimCloud(eng, sim.NewRNG(1))
	gw := NewSimDG(eng, primary, core.CloudDeployment{Deploy: core.Reschedule, Cloud: simCl})
	srv := httptest.NewServer(gw.Handler())
	defer srv.Close()
	gw.SetWorkerURL(srv.URL)
	c := NewDGClient(srv.URL)

	if got := c.WorkerURL(); got != srv.URL {
		t.Fatalf("worker url %q, want %q", got, srv.URL)
	}
	sc := quickScenario("XWHEP", "seti", "9C-C-R")
	workload, err := sc.Workload()
	if err != nil {
		t.Fatal(err)
	}
	primary.Submit(middleware.Batch{ID: "b", Tasks: workload.Tasks})
	eng.RunUntil(1)
	all, perr := c.ProgressBatch([]string{"b"})
	if perr != nil {
		t.Fatal(perr)
	}
	if p := all["b"]; p.Size == 0 || p.Arrived == 0 {
		t.Fatalf("progress: %+v", p)
	}
	// Unknown routes return JSON errors.
	resp, err := http.Get(srv.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown route: %d", resp.StatusCode)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		t.Fatalf("unknown route error payload: %v %+v", err, e)
	}
}

// TestDriverLifecycle drives the emulated provider directly: launch boots a
// simulated worker, list tracks its state, terminate stops it, and the
// batch's progress names the instance idle exactly while its worker is
// connected with nothing to do.
func TestDriverLifecycle(t *testing.T) {
	eng := sim.NewEngine()
	primary := xwhep.New(eng, xwhep.DefaultConfig())
	simCl := cloud.NewSimCloud(eng, sim.NewRNG(2))
	gw := NewSimDG(eng, primary, core.CloudDeployment{Deploy: core.Reschedule, Cloud: simCl})
	gw.SetWorkerURL("http://dg.emul")
	var d cloud.Driver = gw

	if _, err := d.Launch(cloud.LaunchRequest{Image: "img"}); err == nil {
		t.Fatal("launch without batch id accepted")
	}
	info, err := d.Launch(cloud.LaunchRequest{Image: "img", BatchID: "b"})
	if err != nil {
		t.Fatal(err)
	}
	if info.State != cloud.StatePending || info.Provider != ProviderName {
		t.Fatalf("launched: %+v", info)
	}
	idle := func() []string {
		all, err := gw.ProgressBatch([]string{"b"})
		if err != nil {
			t.Fatal(err)
		}
		return all["b"].IdleInstances
	}
	if got := idle(); got != nil {
		t.Fatalf("a booting instance is idle: %q", got)
	}
	// The worker connects after the simulated boot delay.
	eng.RunUntil(121) // past the 120 s cloud boot
	if got := d.List(); len(got) != 1 || got[0].ID != info.ID || got[0].State != cloud.StateRunning {
		t.Fatalf("list after boot: %+v, want %s running", got, info.ID)
	}
	if got := idle(); !slices.Equal(got, []string{info.ID}) {
		t.Fatalf("idle after boot, with no task to run: %q, want [%s]", got, info.ID)
	}
	if err := d.Terminate(info.ID); err != nil {
		t.Fatal(err)
	}
	if got := d.List(); len(got) != 0 {
		t.Fatalf("list after terminate: %+v, want none", got)
	}
	if got := idle(); got != nil {
		t.Fatalf("a terminated instance is idle: %q", got)
	}
	if err := d.Terminate("ghost"); err == nil {
		t.Fatal("terminating unknown instance accepted")
	}
}
