package service

import (
	"bytes"
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spequlos/internal/cloud"
	"spequlos/internal/core"
	"spequlos/internal/middleware"
)

// scriptedDG is a DGGateway whose progress advances under test control.
type scriptedDG struct {
	mu       sync.Mutex
	size     int
	done     int
	assigned int
}

func (d *scriptedDG) set(done, assigned int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.done, d.assigned = done, assigned
}

// ProgressBatch answers the same progress for every batch.
func (d *scriptedDG) ProgressBatch(ids []string) (map[string]middleware.Progress, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[string]middleware.Progress, len(ids))
	for _, id := range ids {
		out[id] = middleware.Progress{
			Size: d.size, Arrived: d.size, Completed: d.done,
			EverAssigned: d.assigned, Running: d.size - d.done,
		}
	}
	return out, nil
}

func (d *scriptedDG) InstanceBusy(string) (bool, error) { return true, nil }

func (d *scriptedDG) WorkerURL() string { return "http://dg.example:4321" }

// newStack is NewStack for a test: the stack is closed when the test ends.
func newStack(t *testing.T, cfg StackConfig) *Stack {
	t.Helper()
	st, err := NewStack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	return st
}

func TestInformationServiceHTTP(t *testing.T) {
	svc := NewInformationService(core.NewInformation())
	srv := httptest.NewServer(svc)
	defer srv.Close()
	c := NewInformationClient(srv.URL)
	addSample := func(id string, s core.Sample) string {
		return c.AddSamples([]BatchSample{{BatchID: id, Sample: s}})[0].Error
	}

	if err := c.Track(TrackRequest{BatchID: "b1", EnvKey: "e", Size: 100}); err != nil {
		t.Fatal(err)
	}
	if err := c.Track(TrackRequest{BatchID: "b1", EnvKey: "e", Size: 100}); err == nil {
		t.Fatal("duplicate track accepted")
	}
	if msg := addSample("b1", core.Sample{T: 60, Completed: 50, Assigned: 100}); msg != "" {
		t.Fatal(msg)
	}
	st, err := c.Status("b1")
	if err != nil {
		t.Fatal(err)
	}
	if st.CompletedFraction != 0.5 || st.AssignedFraction != 1 || st.Samples != 1 {
		t.Fatalf("status: %+v", st)
	}
	if st.TC50 != 60 {
		t.Fatalf("tc50 = %v, want 60", st.TC50)
	}
	var ids []string
	if err := c.Get(&ids, "batches"); err != nil || len(ids) != 1 || ids[0] != "b1" {
		t.Fatalf("list: %v %v", ids, err)
	}
	if _, err := c.Status("nope"); err == nil {
		t.Fatal("unknown batch status accepted")
	}
	if msg := addSample("nope", core.Sample{}); msg == "" {
		t.Fatal("sample for unknown batch accepted")
	}
}

func TestInformationServiceRejectsBadInput(t *testing.T) {
	svc := NewInformationService(core.NewInformation())
	srv := httptest.NewServer(svc)
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/batches", "application/json", strings.NewReader(`{"size":0}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("zero size accepted: %d", resp.StatusCode)
	}
	resp, err = http.Post(srv.URL+"/batches", "application/json", strings.NewReader(`{bogus`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON accepted: %d", resp.StatusCode)
	}
}

func TestCreditServiceHTTP(t *testing.T) {
	svc := NewCreditService(core.NewCreditSystem())
	srv := httptest.NewServer(svc)
	defer srv.Close()
	c := NewCreditClient(srv.URL)

	if err := c.Deposit("alice", 100); err != nil {
		t.Fatal(err)
	}
	if err := c.Order("alice", "b1", 60); err != nil {
		t.Fatal(err)
	}
	if err := c.Order("alice", "b1", 60); err == nil {
		t.Fatal("duplicate order accepted")
	}
	if r := c.Orders([]string{"b1"})[0]; r.Error != "" || !r.HasCredits {
		t.Fatalf("has credits: %+v", r)
	}
	if r := c.Bills([]BillItem{{BatchID: "b1", Credits: []float64{25}}})[0]; r.Error != "" || r.Applied != 1 || r.Exhausted {
		t.Fatalf("bill: %+v", r)
	}
	o, err := c.OrderOf("b1")
	if err != nil || o.Billed != 25 {
		t.Fatalf("order: %+v %v", o, err)
	}
	refund, err := c.Pay("b1")
	if err != nil || refund != 35 {
		t.Fatalf("pay: %v %v", refund, err)
	}
	a, err := c.Account("alice")
	if err != nil || a.Balance != 75 || a.Spent != 25 {
		t.Fatalf("account: %+v %v", a, err)
	}
}

func TestOracleServiceHTTP(t *testing.T) {
	infoSvc := NewInformationService(core.NewInformation())
	infoSrv := httptest.NewServer(infoSvc)
	defer infoSrv.Close()
	infoClient := NewInformationClient(infoSrv.URL)

	oracleSvc := NewOracleService(core.NewOracle(core.DefaultStrategy()), infoClient)
	oracleSrv := httptest.NewServer(oracleSvc)
	defer oracleSrv.Close()
	c := NewOracleClient(oracleSrv.URL)

	infoClient.Track(TrackRequest{BatchID: "b", EnvKey: "env", Size: 100})
	if _, err := c.Predict("b"); err == nil {
		t.Fatal("prediction without progress accepted")
	}
	infoClient.AddSamples([]BatchSample{{BatchID: "b", Sample: core.Sample{T: 500, Completed: 50, Assigned: 100}}})
	p, err := c.Predict("b")
	if err != nil {
		t.Fatal(err)
	}
	if p.PredictedTime != 1000 {
		t.Fatalf("prediction = %v, want 1000", p.PredictedTime)
	}

	// Below the 90% trigger: no start.
	plan := func() PlanResult { return c.Plans([]PlanRequest{{BatchID: "b", CreditCPUHours: 10}})[0] }
	if r := plan(); r.Error != "" || r.Plan.Start {
		t.Fatalf("plan fired early: %+v", r)
	}
	infoClient.AddSamples([]BatchSample{{BatchID: "b", Sample: core.Sample{T: 900, Completed: 90, Assigned: 100}}})
	r := plan()
	if r.Error != "" || !r.Plan.Start || r.Plan.Workers < 1 {
		t.Fatalf("plan: %+v", r)
	}
	if r.Plan.Workers > 10 {
		t.Fatalf("conservative plan too large: %d", r.Plan.Workers)
	}

	// Calibration round trip.
	if err := c.RecordCalibration("env", 1000, 1500); err != nil {
		t.Fatal(err)
	}
	st, err := c.Calibration("env")
	if err != nil || st.Alpha != 1.5 || st.Count != 1 {
		t.Fatalf("calibration: %+v %v", st, err)
	}
}

// TestFigure3Sequence drives the full sequence diagram of Fig 3 over real
// HTTP: register QoS, submit, predict, order credits, monitor loop starting
// cloud workers, billing, completion, payment with refund, calibration.
func TestFigure3Sequence(t *testing.T) {
	dg := &scriptedDG{size: 100}
	ec2 := cloud.NewMockEC2()
	stack := newStack(t, StackConfig{
		Strategy: core.DefaultStrategy(),
		Registry: cloud.NewRegistry(ec2),
		DG:       dg,
	})

	// Deterministic billing clock: each Step advances one minute.
	now := time.Unix(1_700_000_000, 0)
	stack.Scheduler.Now = func() time.Time { return now }
	step := func() {
		now = now.Add(time.Minute)
		if err := stack.Scheduler.Step(); err != nil {
			t.Fatal(err)
		}
	}

	// User: deposit, registerQoS + orderQoS.
	if err := stack.CreditClient.Deposit("alice", 1000); err != nil {
		t.Fatal(err)
	}
	if err := stack.Scheduler.RegisterQoS(QoSRequest{
		User: "alice", BatchID: "bot-1", EnvKey: "XWHEP/seti/SMALL", Size: 100,
		Credits: 300, Provider: "ec2", Image: "xwhep-worker",
	}); err != nil {
		t.Fatal(err)
	}

	// The BoT progresses on the BE-DCI.
	dg.set(10, 100)
	step()
	dg.set(50, 100)
	step()

	// getQoSInformation: prediction mid-run.
	pred, err := stack.OracleClient.Predict("bot-1")
	if err != nil {
		t.Fatal(err)
	}
	if pred.PredictedTime <= 0 {
		t.Fatalf("prediction: %+v", pred)
	}

	// Cloud must not start before the completion threshold.
	st, _ := stack.Scheduler.Status("bot-1")
	if st.Started {
		t.Fatal("cloud started before 90%")
	}

	// Tail reached: the next step must launch cloud workers on EC2.
	dg.set(91, 100)
	step()
	st, _ = stack.Scheduler.Status("bot-1")
	if !st.Started || len(st.Instances) == 0 {
		t.Fatalf("cloud not started at 91%%: %+v", st)
	}
	if st.Instances[0].Provider != "ec2" || st.Instances[0].DGServer != dg.WorkerURL() {
		t.Fatalf("instance misconfigured: %+v", st.Instances[0])
	}
	if got := len(ec2.List()); got != len(st.Instances) {
		t.Fatalf("provider sees %d instances, scheduler %d", got, len(st.Instances))
	}

	// Billing accrues while the tail executes.
	dg.set(95, 100)
	step()
	o, err := stack.CreditClient.OrderOf("bot-1")
	if err != nil {
		t.Fatal(err)
	}
	if o.Billed <= 0 {
		t.Fatal("no billing after a minute of cloud usage")
	}

	// Completion: final billing, shutdown, payment, refund, calibration.
	dg.set(100, 100)
	step()
	st, _ = stack.Scheduler.Status("bot-1")
	if !st.Finalized {
		t.Fatal("not finalized after completion")
	}
	if got := len(ec2.List()); got != 0 {
		t.Fatalf("%d instances still running after completion", got)
	}
	o, _ = stack.CreditClient.OrderOf("bot-1")
	if !o.Closed {
		t.Fatal("order not closed")
	}
	a, _ := stack.CreditClient.Account("alice")
	if a.Balance <= 700 || a.Balance >= 1000 {
		t.Fatalf("refund wrong: balance=%v (billed=%v)", a.Balance, o.Billed)
	}
	cal, err := stack.OracleClient.Calibration("XWHEP/seti/SMALL")
	if err != nil || cal.Count != 1 {
		t.Fatalf("calibration not recorded: %+v %v", cal, err)
	}

	// Further steps are no-ops on a finalized batch.
	step()
	o2, _ := stack.CreditClient.OrderOf("bot-1")
	if o2.Billed != o.Billed {
		t.Fatal("billing continued after finalization")
	}
}

func TestSchedulerExhaustionStopsInstances(t *testing.T) {
	dg := &scriptedDG{size: 100}
	ec2 := cloud.NewMockEC2()
	stack := newStack(t, StackConfig{
		Strategy: core.Strategy{Trigger: core.CompletionThreshold{Frac: 0.9}, Sizing: core.Greedy{}, Deploy: core.Reschedule},
		Registry: cloud.NewRegistry(ec2),
		DG:       dg,
	})
	now := time.Unix(1_700_000_000, 0)
	stack.Scheduler.Now = func() time.Time { return now }

	stack.CreditClient.Deposit("bob", 10)
	if err := stack.Scheduler.RegisterQoS(QoSRequest{
		User: "bob", BatchID: "b", EnvKey: "e", Size: 100,
		Credits: 0.05, Provider: "ec2", Image: "img", // 12 cpu·s of funding
	}); err != nil {
		t.Fatal(err)
	}
	dg.set(95, 100)
	now = now.Add(time.Minute)
	if err := stack.Scheduler.Step(); err != nil {
		t.Fatal(err)
	}
	st, _ := stack.Scheduler.Status("b")
	if !st.Started {
		t.Fatal("cloud not started")
	}
	// One minute of usage exceeds the funding: instances must stop.
	now = now.Add(time.Minute)
	stack.Scheduler.Step()
	now = now.Add(time.Minute)
	stack.Scheduler.Step()
	st, _ = stack.Scheduler.Status("b")
	if !st.Exhausted {
		t.Fatal("order not exhausted")
	}
	if got := len(ec2.List()); got != 0 {
		t.Fatalf("%d instances alive after exhaustion", got)
	}
}

// downDG is a DGGateway whose server is unreachable; polled receives one
// signal per poll, as far as its buffer goes.
type downDG struct{ polled chan struct{} }

func (d downDG) ProgressBatch([]string) (map[string]middleware.Progress, error) {
	select {
	case d.polled <- struct{}{}:
	default:
	}
	return nil, errors.New("dg: connection refused")
}

func (downDG) InstanceBusy(string) (bool, error) { return true, nil }

func (downDG) WorkerURL() string { return "http://dg.example:4321" }

// TestRunLogsTickErrors pins the daemon loop's handling of a failed tick: it
// is logged, and the loop keeps ticking until stopped.
func TestRunLogsTickErrors(t *testing.T) {
	dg := downDG{polled: make(chan struct{}, 2)}
	stack := newStack(t, StackConfig{Strategy: core.DefaultStrategy(), DG: dg})
	stack.CreditClient.Deposit("bob", 10)
	if err := stack.Scheduler.RegisterQoS(QoSRequest{
		User: "bob", BatchID: "b", EnvKey: "e", Size: 100,
		Credits: 1, Provider: "mock", Image: "img",
	}); err != nil {
		t.Fatal(err)
	}

	var logged bytes.Buffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)

	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		stack.Scheduler.Run(time.Millisecond, stop)
		close(done)
	}()
	// The second poll proves the loop survived the first tick's error, and
	// orders it after that tick's log line.
	<-dg.polled
	<-dg.polled
	close(stop)
	<-done

	if got := logged.String(); !strings.Contains(got, "scheduler: tick: ") || !strings.Contains(got, "connection refused") {
		t.Fatalf("tick error not logged; log output: %q", got)
	}
}

func TestSchedulerValidation(t *testing.T) {
	dg := &scriptedDG{size: 10}
	stack := newStack(t, StackConfig{Strategy: core.DefaultStrategy(), DG: dg})
	if err := stack.Scheduler.RegisterQoS(QoSRequest{BatchID: "", Size: 10}); err == nil {
		t.Fatal("empty batch id accepted")
	}
	if err := stack.Scheduler.RegisterQoS(QoSRequest{BatchID: "x", Size: 0}); err == nil {
		t.Fatal("zero size accepted")
	}
	if _, err := stack.Scheduler.Status("ghost"); err == nil {
		t.Fatal("unknown batch status accepted")
	}
}

func TestSchedulerHTTPEndpoints(t *testing.T) {
	dg := &scriptedDG{size: 10}
	stack := newStack(t, StackConfig{Strategy: core.DefaultStrategy(), DG: dg})
	stack.CreditClient.Deposit("u", 100)

	body := `{"user":"u","batch_id":"hb","env_key":"e","size":10,"credits":10,"provider":"ec2","image":"img"}`
	resp, err := http.Post(stack.SchedulerClient.BaseURL+"/qos", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("qos register: %d", resp.StatusCode)
	}
	resp, err = http.Post(stack.SchedulerClient.BaseURL+"/step", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("step: %d", resp.StatusCode)
	}
	resp, err = http.Get(stack.SchedulerClient.BaseURL + "/qos/hb")
	if err != nil {
		t.Fatal(err)
	}
	var st QoSStatus
	if err := decodeReply(resp, &st); err != nil {
		t.Fatal(err)
	}
	if st.BatchID != "hb" {
		t.Fatalf("status: %+v", st)
	}
	resp, err = http.Get(stack.SchedulerClient.BaseURL + "/instances")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
}

// TestMuxMountsAllModules: one listener serves every module under its
// prefix and /healthz, the clients share the stack's one http.Client, and
// with a KeyManager the gate stands in front of it all — a caller without a
// key is refused, while the modules reach one another with the stack's own.
func TestMuxMountsAllModules(t *testing.T) {
	for _, gated := range []bool{false, true} {
		var km *KeyManager
		if gated {
			km = NewKeyManager(nil)
		}
		stack := newStack(t, StackConfig{Strategy: core.DefaultStrategy(), DG: &scriptedDG{size: 1}, Keys: km})
		for _, c := range []*Client{&stack.InfoClient.Client, &stack.CreditClient.Client, &stack.OracleClient.Client, &stack.SchedulerClient.Client} {
			if c.HTTP != stack.HTTP || !strings.HasPrefix(c.BaseURL, stack.URL+"/") {
				t.Fatalf("gated %v: client %s does not send through the stack's client", gated, c.BaseURL)
			}
		}
		for _, path := range []string{"/healthz", "/information/batches", "/scheduler/instances", "/oracle/calibration/e", "/credit/accounts/u"} {
			want := http.StatusOK
			if gated && path != "/healthz" {
				want = http.StatusUnauthorized
			}
			resp, err := http.Get(stack.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != want {
				t.Fatalf("gated %v: GET %s without a key: %d, want %d", gated, path, resp.StatusCode, want)
			}
		}
		// Registration crosses three modules over the stack's client.
		if err := stack.CreditClient.Deposit("u", 5); err != nil {
			t.Fatal(err)
		}
		if err := stack.SchedulerClient.RegisterQoS(QoSRequest{User: "u", BatchID: "b", EnvKey: "e", Size: 1, Credits: 5}); err != nil {
			t.Fatalf("gated %v: %v", gated, err)
		}
	}
}

// TestConcurrentSchedulerSteps races eight ticks over the same batches, twice:
// whichever tick claims a batch, it is launched once and each usage window is
// billed once.
func TestConcurrentSchedulerSteps(t *testing.T) {
	dg := &scriptedDG{size: 100}
	driver := cloud.NewMockDriver("mock", time.Second, 0.10)
	stack := newStack(t, StackConfig{Strategy: core.DefaultStrategy(), Registry: cloud.NewRegistry(driver), DG: dg})
	var nowNS atomic.Int64
	clock := func() time.Time { return time.Unix(0, nowNS.Load()).UTC() }
	stack.SetClock(clock)
	driver.SetClock(clock)
	stack.CreditClient.Deposit("u", 1000)
	const batches = 4
	for i := 0; i < batches; i++ {
		if err := stack.Scheduler.RegisterQoS(QoSRequest{
			User: "u", BatchID: fmt.Sprintf("b%d", i), EnvKey: "e", Size: 100,
			Credits: 50, Provider: "mock", Image: "img",
		}); err != nil {
			t.Fatal(err)
		}
	}
	dg.set(95, 100)
	raceSteps := func() {
		nowNS.Add(int64(time.Minute))
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				stack.Scheduler.Step() //nolint:errcheck // losing a claim is not an error
			}()
		}
		wg.Wait()
	}

	raceSteps()
	first, _ := stack.Scheduler.Status("b0")
	fleet := len(first.Instances)
	if fleet == 0 {
		t.Fatal("no instances after concurrent steps")
	}
	for i := 0; i < batches; i++ {
		st, err := stack.Scheduler.Status(fmt.Sprintf("b%d", i))
		if err != nil || len(st.Instances) != fleet || st.TriggeredAt != 60 {
			t.Fatalf("batch %d launched twice or not at all: %+v, %v (fleet %d)", i, st, err, fleet)
		}
	}
	if got := len(driver.List()); got != batches*fleet {
		t.Fatalf("provider runs %d instances, want %d", got, batches*fleet)
	}

	raceSteps()
	want := float64(fleet) * 60 / 3600 * core.CreditsPerCPUHour
	for i := 0; i < batches; i++ {
		o, err := stack.CreditClient.OrderOf(fmt.Sprintf("b%d", i))
		if err != nil || math.Abs(o.Billed-want) > 1e-9 {
			t.Fatalf("batch %d billed %v for one minute of %d instances, want %v (%v)", i, o.Billed, fleet, want, err)
		}
	}
}
