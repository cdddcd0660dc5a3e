package emul

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
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
// simulator's trigger time, fleet size, billing and completion time.
func TestRunCellMatchesSimulator(t *testing.T) {
	sc := quickScenario("XWHEP", "seti", "9C-C-R")
	// The emulation's own accounting lives on the backend value, not on the
	// result: open it as Job does and keep a handle.
	var stack *HTTPBackend
	job := Job(sc)
	job.Backend = func(eng *sim.Engine, primary middleware.Server, cl *cloud.SimCloud, cfg core.Config) campaign.Backend {
		stack = HTTPStack(eng, primary, cl, cfg).(*HTTPBackend)
		return stack
	}
	sim := campaign.Run(sc)
	e := campaign.Execute(job)
	if e.Err != "" {
		t.Fatal(e.Err)
	}
	out := e.Result
	if !sim.Completed || !out.Completed {
		t.Fatalf("completed: sim=%v emul=%v", sim.Completed, out.Completed)
	}
	if out.TriggeredAt != sim.TriggeredAt {
		t.Errorf("trigger: sim=%.0f emul=%.0f", sim.TriggeredAt, out.TriggeredAt)
	}
	if out.Instances != sim.Instances {
		t.Errorf("instances: sim=%d emul=%d", sim.Instances, out.Instances)
	}
	if !within(sim.CreditsBilled, out.CreditsBilled, 1e-6) {
		t.Errorf("credits: sim=%v emul=%v", sim.CreditsBilled, out.CreditsBilled)
	}
	if !within(sim.CompletionTime, out.CompletionTime, 0.01) {
		t.Errorf("completion: sim=%.1f emul=%.1f", sim.CompletionTime, out.CompletionTime)
	}
	forwarded, completed := 0, 0
	for _, s := range stack.Bridge.StatsBySource() {
		forwarded += s.Forwarded
		completed += s.Completed
	}
	if out.Size != sim.Size || forwarded != out.Size || completed != out.Size {
		t.Errorf("bridge accounting: size=%d forwarded=%d completed=%d (sim size %d)",
			out.Size, forwarded, completed, sim.Size)
	}
	if stack.Ticks == 0 || out.Events == 0 {
		t.Errorf("no ticks/events recorded: ticks=%d %+v", stack.Ticks, out)
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

func TestRunCellRequiresStrategy(t *testing.T) {
	sc := quickScenario("XWHEP", "seti", "9C-C-R")
	sc.Strategy = nil
	if _, err := RunCell(sc); err == nil {
		t.Fatal("baseline scenario accepted")
	}
}

// TestGatewayHTTP exercises the DG wire protocol: progress, worker-url and
// busy over real HTTP, plus error paths.
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
	if _, err := c.InstanceBusy("ghost"); err == nil {
		t.Fatal("unknown instance busy accepted")
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
// simulated worker, describe tracks its state, terminate stops it.
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
	// The worker connects after the simulated boot delay.
	eng.RunUntil(121) // past the 120 s cloud boot
	desc, err := d.Describe(info.ID)
	if err != nil || desc.State != cloud.StateRunning {
		t.Fatalf("describe after boot: %+v %v", desc, err)
	}
	if got := len(d.List()); got != 1 {
		t.Fatalf("list: %d instances", got)
	}
	if err := d.Terminate(info.ID); err != nil {
		t.Fatal(err)
	}
	desc, err = d.Describe(info.ID)
	if err != nil || desc.State != cloud.StateTerminated {
		t.Fatalf("describe after terminate: %+v %v", desc, err)
	}
	if got := len(d.List()); got != 0 {
		t.Fatalf("list after terminate: %d instances", got)
	}
	if err := d.Terminate("ghost"); err == nil {
		t.Fatal("terminating unknown instance accepted")
	}
}
