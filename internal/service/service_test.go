package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
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

// A sample's time is seconds since submission, and Information stores it as
// sent: served back, and through a state image, it is the same float, bit for
// bit, however large the submission time.
func TestSampleTimeSurvivesInformation(t *testing.T) {
	info := core.NewInformation()
	srv := httptest.NewServer(NewInformationService(info))
	defer srv.Close()
	c := NewInformationClient(srv.URL)
	if err := c.Track(TrackRequest{BatchID: "b", EnvKey: "e", Size: 100, SubmittedAt: 1.7e9 + 0.1}); err != nil {
		t.Fatal(err)
	}
	const at = 60.3
	if res := c.AddSamples([]BatchSample{{BatchID: "b", Sample: core.Sample{T: at, Completed: 10, Assigned: 20}}}); res[0].Error != "" {
		t.Fatal(res[0].Error)
	}
	st, err := c.Status("b")
	if err != nil {
		t.Fatal(err)
	}
	if got := st.LastSample.T; math.Float64bits(got) != math.Float64bits(at) {
		t.Errorf("GET /batches/b: last_sample.t = %v, want %v", got, at)
	}
	var img bytes.Buffer
	if err := (core.State{Information: info, Credits: core.NewCreditSystem(), Calibration: core.NewCalibration()}).WriteJSON(&img); err != nil {
		t.Fatal(err)
	}
	back, err := core.ReadState(&img)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := back.Information.View("b"); math.Float64bits(v.LastSample.T) != math.Float64bits(at) {
		t.Errorf("through a state image: last sample t = %v, want %v", v.LastSample.T, at)
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
	if r := c.Pays([]string{"b1"})[0]; r.Error != "" || r.Refund != 35 {
		t.Fatalf("pay: %+v", r)
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

	// Below the 90% trigger: no start, and ask again at 90 of 100 complete.
	// An untracked batch ahead of b fails at its own index, naming itself.
	plan := func() PlanResult {
		t.Helper()
		res := c.Plans([]PlanRequest{{BatchID: "ghost", CreditCPUHours: 10}, {BatchID: "b", CreditCPUHours: 10}})
		if len(res) != 2 || !strings.Contains(res[0].Error, `"ghost"`) {
			t.Fatalf("plans: %+v", res)
		}
		return res[1]
	}
	if r := plan(); r.Error != "" || r.Plan != (PlanReply{Wait: core.Wait{Completed: 90}}) {
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

	// Calibration round trip: b, half done at 500 s, completes at 1500 s, so
	// the Oracle archives base 1000 and actual 1500; b2, which Information
	// does not track, fails alone.
	infoClient.AddSamples([]BatchSample{{BatchID: "b", Sample: core.Sample{T: 1500, Completed: 100, Assigned: 100}}})
	res := c.Calibrations([]CalibrationItem{{BatchID: "b", EnvKey: "env"}, {BatchID: "b2", EnvKey: "env"}})
	if len(res) != 2 || res[0] != (ItemResult{}) || !strings.Contains(res[1].Error, `"b2"`) {
		t.Fatalf("calibrations: %+v", res)
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
		// Registration crosses three modules over the stack's client. Gated,
		// the user orders with a key of their own.
		if err := stack.CreditClient.Deposit("u", 5); err != nil {
			t.Fatal(err)
		}
		sched := stack.SchedulerClient
		if gated {
			sched = &SchedulerClient{Client{BaseURL: sched.BaseURL, HTTP: KeyedClient(km.Issue("u", core.TierFree).Key)}}
		}
		if err := sched.RegisterQoS(QoSRequest{User: "u", BatchID: "b", EnvKey: "e", Size: 1, Credits: 5}); err != nil {
			t.Fatalf("gated %v: %v", gated, err)
		}
	}
}

// TestConcurrentSchedulerSteps races eight ticks over the same batches, twice:
// one tick runs at a time, so each batch is launched once and each usage
// window is billed once.
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
				stack.Scheduler.Step() //nolint:errcheck // finding a tick running is not an error
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

// TestRegistrationRecordsSubmission: a batch the Scheduler registers is
// tracked in Information with the registration instant as its submission
// time, which the state image then carries — as the simulator's Information
// does — and not the epoch.
func TestRegistrationRecordsSubmission(t *testing.T) {
	state := core.NewState()
	stack := newStack(t, StackConfig{Strategy: core.DefaultStrategy(), DG: &scriptedDG{size: 10}, State: &state})
	now := time.Unix(1_700_000_000, 250_000_000)
	stack.SetClock(func() time.Time { return now })
	if err := stack.Scheduler.RegisterQoS(QoSRequest{User: "u", BatchID: "b", EnvKey: "e", Size: 10}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := state.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var img struct {
		Information struct {
			Batches []struct {
				BatchID     string  `json:"batch_id"`
				SubmittedAt float64 `json:"submitted_at"`
			} `json:"batches"`
		} `json:"information"`
	}
	if err := json.Unmarshal(buf.Bytes(), &img); err != nil {
		t.Fatal(err)
	}
	bs := img.Information.Batches
	if want := unixSeconds(now); len(bs) != 1 || bs[0].BatchID != "b" || bs[0].SubmittedAt != want {
		t.Fatalf("state image batches %+v, want b submitted at %v", bs, want)
	}
}
