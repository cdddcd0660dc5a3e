package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"spequlos/internal/cloud"
	"spequlos/internal/core"
	"spequlos/internal/middleware"
)

// negativeModules builds each module mounted standalone, the way every
// handler is deployed. Handlers must reject bad input before touching their
// collaborators, so placeholder clients are enough.
func negativeModules() map[string]http.Handler {
	infoClient := NewInformationClient("")
	return map[string]http.Handler{
		"information": NewInformationService(core.NewInformation()),
		"credit":      NewCreditService(core.NewCreditSystem()),
		"oracle":      NewOracleService(core.NewOracle(core.DefaultStrategy()), infoClient),
		"scheduler": NewSchedulerService(infoClient, NewCreditClient(""), NewOracleClient(""),
			cloud.DefaultRegistry(), &scriptedDG{size: 1}),
	}
}

// TestNegativePaths drives every module through its failure surface: wrong
// methods, malformed JSON, unknown fields, unknown routes. Every response
// must be an HTTP error carrying a JSON {"error": ...} payload — never an
// empty 200.
func TestNegativePaths(t *testing.T) {
	const gone = -1
	cases := []struct {
		module string
		method string
		path   string
		body   string
		want   int // 0 means "any 4xx/5xx", gone "404 no route METHOD PATH"
	}{
		// Information.
		{"information", http.MethodDelete, "/batches", "", 0},
		{"information", http.MethodPut, "/batches/b1", "", 0},
		{"information", http.MethodPost, "/batches", `{bogus`, http.StatusBadRequest},
		{"information", http.MethodPost, "/batches", `{"batch_id":"b","size":10,"nope":1}`, http.StatusBadRequest},
		{"information", http.MethodPost, "/batches", `{"batch_id":"b","size":-1}`, http.StatusBadRequest},
		{"information", http.MethodPost, "/batches", `{"batch_id":"","size":10}`, http.StatusBadRequest},
		{"information", http.MethodGet, "/batches/ghost", "", http.StatusNotFound},
		{"information", http.MethodGet, "/nope", "", http.StatusNotFound},
		{"information", http.MethodPost, "/stats", "", 0},

		// Credit System.
		{"credit", http.MethodDelete, "/deposit", "", 0},
		{"credit", http.MethodPost, "/deposit", `{bogus`, http.StatusBadRequest},
		{"credit", http.MethodPost, "/deposit", `{"user":"u","credits":5,"extra":true}`, http.StatusBadRequest},
		{"credit", http.MethodPost, "/deposit", `{"user":"u","credits":-5}`, http.StatusBadRequest},
		{"credit", http.MethodPost, "/deposit", `{"user":"","credits":5}`, http.StatusBadRequest},
		{"credit", http.MethodPost, "/orders", `{bogus`, http.StatusBadRequest},
		{"credit", http.MethodPost, "/orders", `{"user":"u","batch_id":"b","credits":1}`, http.StatusConflict},
		{"credit", http.MethodPost, "/orders", `{"user":"u","batch_id":"","credits":1}`, http.StatusBadRequest},
		{"credit", http.MethodPost, "/orders", `{"user":"","batch_id":"b","credits":1}`, http.StatusBadRequest},
		{"credit", http.MethodPost, "/orders", `{"user":"u","batch_id":"b","credits":0}`, http.StatusBadRequest},
		{"credit", http.MethodGet, "/orders/ghost", "", http.StatusNotFound},
		{"credit", http.MethodGet, "/nope", "", http.StatusNotFound},

		// Oracle.
		{"oracle", http.MethodGet, "/nope", "", http.StatusNotFound},

		// Scheduler.
		{"scheduler", http.MethodDelete, "/qos", "", 0},
		{"scheduler", http.MethodPost, "/qos", `{bogus`, http.StatusBadRequest},
		{"scheduler", http.MethodPost, "/qos", `{"batch_id":"b","size":1,"spare":"x"}`, http.StatusBadRequest},
		{"scheduler", http.MethodPost, "/qos", `{"batch_id":"","size":1}`, http.StatusBadRequest},
		{"scheduler", http.MethodPost, "/qos", `{"batch_id":"b","size":0}`, http.StatusBadRequest},
		{"scheduler", http.MethodGet, "/qos/ghost", "", http.StatusNotFound},
		{"scheduler", http.MethodPatch, "/instances", "", 0},
		{"scheduler", http.MethodGet, "/nope", "", http.StatusNotFound},

		// The single-item routes the bulk ones replaced are gone: each
		// request these rows once made of them, well-formed or not, finds
		// no route.
		{"information", http.MethodPost, "/batches/b/samples", `{bogus`, gone},
		{"information", http.MethodPost, "/batches/b/samples", `{"t":1}`, gone},
		{"credit", http.MethodPost, "/orders/b/bill", `{bogus`, gone},
		{"credit", http.MethodPost, "/orders/ghost/bill", `{"credits":1}`, gone},
		{"credit", http.MethodPost, "/orders/ghost/pay", "", gone},
		{"credit", http.MethodGet, "/has-credits/b", "", gone},
		{"oracle", http.MethodDelete, "/plan", "", gone},
		{"oracle", http.MethodPost, "/plan", `{bogus`, gone},
		{"oracle", http.MethodPost, "/plan", `{"batch_id":"b","surprise":1}`, gone},
		{"oracle", http.MethodPost, "/calibration", `{bogus`, gone},
		{"oracle", http.MethodPost, "/calibration", `{"env_key":"e","base":1,"actual":2,"x":3}`, gone},
	}

	servers := map[string]*httptest.Server{}
	for name, h := range negativeModules() {
		srv := httptest.NewServer(h)
		defer srv.Close()
		servers[name] = srv
	}

	for _, tc := range cases {
		name := tc.module + " " + tc.method + " " + tc.path
		t.Run(name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, servers[tc.module].URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if tc.want == gone && resp.StatusCode != http.StatusNotFound {
				t.Fatalf("status %d, want 404", resp.StatusCode)
			}
			if tc.want > 0 && resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.want)
			}
			if tc.want == 0 && resp.StatusCode < 400 {
				t.Fatalf("status %d, want an error", resp.StatusCode)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Fatalf("content type %q", ct)
			}
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			var e apiError
			if err := json.Unmarshal(body, &e); err != nil {
				t.Fatalf("non-JSON error body %q: %v", body, err)
			}
			if e.Error == "" {
				t.Fatalf("empty error payload: %q", body)
			}
			if want := "no route " + tc.method + " " + tc.path; tc.want == gone && e.Error != want {
				t.Fatalf("error %q, want %q", e.Error, want)
			}
		})
	}
}

// TestGreedyReleaseStopsIdleWorkers pins the Greedy release policy of the
// deployable Scheduler: booted workers that hold no assignment are settled
// and terminated, matching the in-process simulator (§3.5).
func TestGreedyReleaseStopsIdleWorkers(t *testing.T) {
	ec2 := cloud.NewMockEC2()
	dg := &idleStatusDG{scriptedDG: scriptedDG{size: 100}, driver: ec2}
	stack := newStack(t, StackConfig{
		Strategy: core.Strategy{Trigger: core.CompletionThreshold{Frac: 0.9},
			Sizing: core.Greedy{}, Deploy: core.Reschedule},
		Registry: cloud.NewRegistry(ec2),
		DG:       dg,
	})
	now := time.Unix(1_700_000_000, 0)
	stack.SetClock(func() time.Time { return now })
	ec2.SetClock(func() time.Time { return now })

	stack.CreditClient.Deposit("u", 1000)
	if err := stack.Scheduler.RegisterQoS(QoSRequest{
		User: "u", BatchID: "b", EnvKey: "e", Size: 100,
		Credits: 300, Provider: "ec2", Image: "img",
	}); err != nil {
		t.Fatal(err)
	}
	dg.set(95, 100)
	now = now.Add(time.Minute)
	if err := stack.Scheduler.Step(); err != nil {
		t.Fatal(err)
	}
	st, _ := stack.Scheduler.Status("b")
	if !st.Started || len(st.Instances) == 0 {
		t.Fatalf("cloud not started: %+v", st)
	}
	if st.TriggeredAt != 60 {
		t.Fatalf("triggered at %v, want 60", st.TriggeredAt)
	}
	// Wait past the mock boot latency, then report every worker idle: the
	// next step must stop them all.
	now = now.Add(2 * time.Minute)
	if err := stack.Scheduler.Step(); err != nil {
		t.Fatal(err)
	}
	if got := len(ec2.List()); got != 0 {
		t.Fatalf("%d idle instances still running after greedy release", got)
	}
	// The order is settled, not exhausted: credits return for later use.
	o, err := stack.CreditClient.OrderOf("b")
	if err != nil {
		t.Fatal(err)
	}
	if o.Billed <= 0 || o.Remaining() <= 0 {
		t.Fatalf("order after release: %+v", o)
	}
	st, _ = stack.Scheduler.Status("b")
	if st.Exhausted {
		t.Fatal("release must not exhaust the order")
	}
}

// idleStatusDG reports every running instance idle.
type idleStatusDG struct {
	scriptedDG
	driver *cloud.MockDriver
}

func (d *idleStatusDG) ProgressBatch(ids []string) (map[string]middleware.Progress, error) {
	out, err := d.scriptedDG.ProgressBatch(ids)
	return nameIdle(out, d.driver, func(string) bool { return true }), err
}

// TestMalformedWritesChangeNothing: the module write routes refuse an empty
// user or batch ID with 400 and change nothing. Credit once moved a funded
// user's credits into an order for batch "" that no route can address or
// pay, and Information tracked a batch "".
func TestMalformedWritesChangeNothing(t *testing.T) {
	st := newStack(t, StackConfig{Strategy: core.DefaultStrategy(), DG: &scriptedDG{size: 10}})
	if err := st.CreditClient.Deposit("alice", 5); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ url, body string }{
		{st.CreditClient.BaseURL + "/deposit", `{"user":"","credits":5}`},
		{st.CreditClient.BaseURL + "/orders", `{"user":"alice","batch_id":"","credits":5}`},
		{st.InfoClient.BaseURL + "/batches", `{"batch_id":"","env_key":"e","size":10}`},
		{st.SchedulerClient.BaseURL + "/qos", `{"user":"alice","batch_id":"","env_key":"e","size":10,"credits":5}`},
	} {
		resp, err := http.Post(tc.url, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s %s: status %d, want 400", tc.url, tc.body, resp.StatusCode)
		}
	}
	if a := st.Credit.Credits().AccountOf("alice"); a.Balance != 5 {
		t.Errorf("alice's balance %v, want 5", a.Balance)
	}
	if a := st.Credit.Credits().AccountOf(""); a.Balance != 0 {
		t.Errorf("the empty user holds %v credits", a.Balance)
	}
	if o, ok := st.Credit.Credits().OrderOf(""); ok {
		t.Errorf("order %+v for batch \"\"", o)
	}
	if ids := st.Information.info.BatchIDs(); len(ids) != 0 {
		t.Errorf("Information tracks %q", ids)
	}
}

// TestRejectedQoSRegistrationMutatesNothing is the regression test for the
// half-registered batch: POST /qos used to track the batch in Information
// before placing the order, so a request Credit refused (balance too low)
// could never be retried — Information answered "already tracked" for ever
// while GET /qos/{id} said "not registered".
func TestRejectedQoSRegistrationMutatesNothing(t *testing.T) {
	st := newStack(t, StackConfig{Strategy: core.DefaultStrategy(), DG: &scriptedDG{size: 10}})
	post := func() int {
		resp, err := http.Post(st.SchedulerClient.BaseURL+"/qos", "application/json", strings.NewReader(
			`{"user":"alice","batch_id":"b1","env_key":"e","size":10,"credits":60,"provider":"mock"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := post(); code != http.StatusConflict {
		t.Fatalf("order without a balance: status %d, want 409", code)
	}
	if _, err := st.Scheduler.Status("b1"); err == nil {
		t.Fatal("rejected batch is registered")
	}
	if ids := st.Information.info.BatchIDs(); len(ids) != 0 {
		t.Fatalf("rejected registration left Information tracking %v", ids)
	}

	if err := st.CreditClient.Deposit("alice", 100); err != nil {
		t.Fatal(err)
	}
	if code := post(); code != http.StatusCreated {
		t.Fatalf("same request after a deposit: status %d, want 201", code)
	}
	if _, err := st.Scheduler.Status("b1"); err != nil {
		t.Fatalf("status after registration: %v", err)
	}
	if ids := st.Information.info.BatchIDs(); len(ids) != 1 || ids[0] != "b1" {
		t.Fatalf("Information lists %v, want b1 once", ids)
	}
	if acc, err := st.CreditClient.Account("alice"); err != nil || acc.Balance != 40 {
		t.Fatalf("account %+v (%v), want balance 100 − 60", acc, err)
	}

	// The other way round: Information refuses (already tracked), so the
	// order placed a moment before is paid back in full.
	if err := st.InfoClient.Track(TrackRequest{BatchID: "b2", EnvKey: "e", Size: 10}); err != nil {
		t.Fatal(err)
	}
	err := st.Scheduler.RegisterQoS(QoSRequest{User: "alice", BatchID: "b2", EnvKey: "e", Size: 10, Credits: 30})
	if err == nil {
		t.Fatal("registration of a batch Information already tracks accepted")
	}
	if acc, err := st.CreditClient.Account("alice"); err != nil || acc.Balance != 40 {
		t.Fatalf("account %+v (%v) after the refused registration, want the order paid back", acc, err)
	}
	if r := st.CreditClient.Orders([]string{"b2"})[0]; r.Error != "" || r.HasCredits {
		t.Fatalf("refused batch still holds an open order: %+v", r)
	}
}

// failNthLaunch is a cloud.Driver whose nth Launch is refused (a provider
// quota, a transient API error); every other call reaches the wrapped driver.
type failNthLaunch struct {
	cloud.Driver
	nth, launches int
}

func (d *failNthLaunch) Launch(req cloud.LaunchRequest) (cloud.InstanceInfo, error) {
	if d.launches++; d.launches == d.nth {
		return cloud.InstanceInfo{}, errors.New("quota")
	}
	return d.Driver.Launch(req)
}

// TestPartialLaunchRetriesOnlyTheShortfall is the regression test for the
// doubled fleet: a launch loop cut short by a driver error kept the instances
// already launched and left the batch not Started, and the next tick launched
// the Oracle's whole plan on top of them — 7 live instances, all billed, for
// a plan of 5. A plan to start n now launches n minus the batch's live
// instances. Started and TriggeredAt are set when the plan is met, not on the
// first successful launch: until then the batch keeps asking the Oracle, which
// is what gets the shortfall launched.
func TestPartialLaunchRetriesOnlyTheShortfall(t *testing.T) {
	dg := &scriptedDG{size: 100}
	ec2 := cloud.NewMockEC2()
	stack := newStack(t, StackConfig{
		Strategy: core.Strategy{Trigger: core.CompletionThreshold{Frac: 0.9},
			Sizing: core.Conservative{}, Deploy: core.Reschedule},
		Registry: cloud.NewRegistry(&failNthLaunch{Driver: ec2, nth: 3}),
		DG:       dg,
	})
	now := time.Unix(1_700_000_000, 0)
	stack.SetClock(func() time.Time { return now })
	ec2.SetClock(func() time.Time { return now })

	stack.CreditClient.Deposit("u", 1000)
	// 80 credits are 5.3 CPU·hours and the batch is seconds from done at its
	// current rate: Conservative plans 5 workers, on both ticks.
	if err := stack.Scheduler.RegisterQoS(QoSRequest{
		User: "u", BatchID: "b", EnvKey: "e", Size: 100,
		Credits: 80, Provider: "ec2", Image: "img",
	}); err != nil {
		t.Fatal(err)
	}
	dg.set(95, 100)
	now = now.Add(time.Minute)
	if err := stack.Scheduler.Step(); err == nil || !strings.Contains(err.Error(), "quota") {
		t.Fatalf("first tick: error %v, want the driver's quota refusal", err)
	}
	st, _ := stack.Scheduler.Status("b")
	if got := len(ec2.List()); got != 2 || st.Started || st.TriggeredAt != -1 {
		t.Fatalf("after the refused launch: %d live, status %+v; want 2 live, not started", got, st)
	}
	now = now.Add(time.Minute)
	if err := stack.Scheduler.Step(); err != nil {
		t.Fatal(err)
	}
	st, _ = stack.Scheduler.Status("b")
	if got := len(ec2.List()); got != 5 || len(st.Instances) != 5 {
		t.Fatalf("%d instances live (%d managed) for a plan of 5", got, len(st.Instances))
	}
	if !st.Started || st.TriggeredAt != 120 {
		t.Fatalf("plan met on the second tick: %+v, want started, triggered at 120", st)
	}
	// Started: no further plan is asked for, so nothing more is launched.
	now = now.Add(time.Minute)
	if err := stack.Scheduler.Step(); err != nil {
		t.Fatal(err)
	}
	if got := len(ec2.List()); got != 5 {
		t.Fatalf("%d instances live after a third tick", got)
	}
}

// TestBatchWithoutOrderFinalizes is the regression test for the batch that
// never left the monitor loop: registered without credits, so no order was
// placed, it completed, and every tick's finalization failed on Credit's
// "no order for batch" — the batch was polled, sampled and failed for the life
// of the daemon. Finalization pays only an order that exists.
func TestBatchWithoutOrderFinalizes(t *testing.T) {
	dg := &scriptedDG{size: 10}
	stack := newStack(t, StackConfig{
		Strategy: core.DefaultStrategy(),
		Registry: cloud.NewRegistry(cloud.NewMockDriver("mock", time.Second, 0.10)),
		DG:       dg,
	})
	if err := stack.Scheduler.RegisterQoS(QoSRequest{BatchID: "free", Size: 10, Provider: "mock"}); err != nil {
		t.Fatal(err)
	}
	dg.set(10, 10)
	for k := 1; k <= 3; k++ {
		if err := stack.Scheduler.Step(); err != nil {
			t.Fatalf("tick %d: %v", k, err)
		}
		if st, err := stack.Scheduler.Status("free"); err != nil || !st.Finalized {
			t.Fatalf("after tick %d: %+v, %v; want finalized by the first", k, st, err)
		}
	}
}

// TestCalibrationSurvivesInformationError: a completed batch whose status
// read fails at the completion tick is not finalized there — it used to be,
// with its α calibration sample silently dropped for good, while a Pay failure
// one line earlier was retried. The tick reports the error and the next one
// finishes the job: paying the closed order again is harmless, and the archive
// is the last step, so it is recorded exactly once.
func TestCalibrationSurvivesInformationError(t *testing.T) {
	dg := &scriptedDG{size: 10}
	stack := newStack(t, StackConfig{Strategy: core.DefaultStrategy(), DG: dg})
	now := time.Unix(0, 0).UTC()
	stack.SetClock(func() time.Time { return now })

	// Information behind a proxy that fails the first status read it is told
	// to: the archive reads the batch's status with POST /statuses.
	var failStatus atomic.Bool
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/statuses" && failStatus.CompareAndSwap(true, false) {
			writeErr(w, http.StatusServiceUnavailable, errors.New("archive unavailable"))
			return
		}
		stack.Information.ServeHTTP(w, r)
	}))
	defer proxy.Close()
	stack.InfoClient.BaseURL = proxy.URL

	if err := stack.CreditClient.Deposit("u", 10); err != nil {
		t.Fatal(err)
	}
	if err := stack.Scheduler.RegisterQoS(QoSRequest{User: "u", BatchID: "b", EnvKey: "env", Size: 10, Credits: 10}); err != nil {
		t.Fatal(err)
	}
	tick := func(done int) error {
		now = now.Add(time.Minute)
		dg.set(done, 10)
		return stack.Scheduler.Step()
	}
	if err := tick(5); err != nil {
		t.Fatal(err)
	}
	failStatus.Store(true)
	if err := tick(10); err == nil || !strings.Contains(err.Error(), "archive unavailable") {
		t.Fatalf("completion tick: error %v, want Information's failure", err)
	}
	if st, _ := stack.Scheduler.Status("b"); st.Finalized {
		t.Fatal("finalized although the calibration sample could not be read")
	}
	if err := tick(10); err != nil {
		t.Fatalf("retry tick: %v", err)
	}
	if st, _ := stack.Scheduler.Status("b"); !st.Finalized {
		t.Fatalf("not finalized by the retry tick: %+v", st)
	}
	if cal, err := stack.OracleClient.Calibration("env"); err != nil || cal.Count != 1 {
		t.Fatalf("calibration of env: %+v, %v; want exactly one archived execution", cal, err)
	}
	if acc, err := stack.CreditClient.Account("u"); err != nil || acc.Balance != 10 {
		t.Fatalf("account %+v, %v; want the unspent order refunded once", acc, err)
	}
}

// finalizeFaults stands in front of Credit and the Oracle and fails what a
// test arms it to: one item of POST /orders/pay, the rest of the request
// being applied, or a whole POST /orders/pay or POST /calibrations request,
// lost before the module sees it.
type finalizeFaults struct {
	failPay          atomic.Value // string: the batch whose pay item fails
	losePay, loseCal atomic.Int64 // how many requests to lose
}

func (f *finalizeFaults) credit(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/orders/pay" {
			next.ServeHTTP(w, r)
			return
		}
		if f.losePay.Add(-1) >= 0 {
			writeErr(w, http.StatusServiceUnavailable, errors.New("credit unavailable"))
			return
		}
		var req BulkRequest[string]
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		failing, _ := f.failPay.Load().(string)
		rest := slices.DeleteFunc(slices.Clone(req.Items), func(id string) bool { return id == failing })
		var applied BulkReply[PayResult]
		if len(rest) > 0 {
			body, _ := json.Marshal(BulkRequest[string]{Items: rest})
			rec := httptest.NewRecorder()
			next.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/orders/pay", bytes.NewReader(body)))
			if err := json.Unmarshal(rec.Body.Bytes(), &applied); err != nil || len(applied.Results) != len(rest) {
				writeErr(w, http.StatusBadGateway, fmt.Errorf("credit answered %d %q", rec.Code, rec.Body))
				return
			}
		}
		var reply BulkReply[PayResult]
		for _, id := range req.Items {
			if id == failing {
				reply.Results = append(reply.Results, PayResult{Error: "ledger unavailable"})
				continue
			}
			reply.Results, applied.Results = append(reply.Results, applied.Results[0]), applied.Results[1:]
		}
		writeJSON(w, http.StatusOK, reply)
	})
}

func (f *finalizeFaults) oracle(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/calibrations" && f.loseCal.Add(-1) >= 0 {
			writeErr(w, http.StatusServiceUnavailable, errors.New("oracle unavailable"))
			return
		}
		next.ServeHTTP(w, r)
	})
}

// TestBulkFinalizationFaults: three batches complete in one tick, so one
// POST /orders/pay and one POST /calibrations finalize them all. A pay item
// that fails sidelines its own batch only: the others are paid, archived and
// finalized, and the next tick finishes the failed one. A bulk request lost
// whole fails every batch it carried, and the next tick retries them all:
// each execution is archived exactly once, each order refunded once.
func TestBulkFinalizationFaults(t *testing.T) {
	ids := []string{"a", "b", "c"}
	const credits = 10.0
	run := func(t *testing.T, arm func(*finalizeFaults), sidelined []string) {
		dg := &scriptedDG{size: 10}
		stack := newStack(t, StackConfig{Strategy: core.DefaultStrategy(), DG: dg})
		now := time.Unix(0, 0).UTC()
		stack.SetClock(func() time.Time { return now })
		faults := &finalizeFaults{}
		for _, p := range []struct {
			client *Client
			h      http.Handler
		}{{&stack.CreditClient.Client, faults.credit(stack.Credit)}, {&stack.OracleClient.Client, faults.oracle(stack.Oracle)}} {
			proxy := httptest.NewServer(p.h)
			t.Cleanup(proxy.Close)
			p.client.BaseURL = proxy.URL
		}
		for _, id := range ids {
			if err := stack.CreditClient.Deposit("u-"+id, credits); err != nil {
				t.Fatal(err)
			}
			if err := stack.Scheduler.RegisterQoS(QoSRequest{User: "u-" + id, BatchID: id, EnvKey: "env-" + id, Size: 10, Credits: credits}); err != nil {
				t.Fatal(err)
			}
		}
		tick := func(done int) error {
			now = now.Add(time.Minute)
			dg.set(done, 10)
			return stack.Scheduler.Step()
		}
		// check: the finalized batches are paid and archived once, the others
		// neither.
		check := func(when string, finalized ...string) {
			t.Helper()
			for _, id := range ids {
				want := slices.Contains(finalized, id)
				st, err := stack.Scheduler.Status(id)
				if err != nil || st.Finalized != want {
					t.Errorf("%s: %s: %+v, %v; want finalized %v", when, id, st, err, want)
				}
				archived := 0
				if want {
					archived = 1
				}
				if cal, err := stack.OracleClient.Calibration("env-" + id); err != nil || cal.Count != archived {
					t.Errorf("%s: %s: calibration %+v, %v; want %d archived", when, id, cal, err, archived)
				}
				if acc, err := stack.CreditClient.Account("u-" + id); err != nil || want && acc.Balance != credits {
					t.Errorf("%s: %s: account %+v, %v; want the order refunded once", when, id, acc, err)
				}
			}
		}

		if err := tick(5); err != nil {
			t.Fatal(err)
		}
		arm(faults)
		if err := tick(10); err == nil || !strings.Contains(err.Error(), "unavailable") {
			t.Fatalf("completion tick: error %v, want the injected failure", err)
		}
		var finalized []string
		for _, id := range ids {
			if !slices.Contains(sidelined, id) {
				finalized = append(finalized, id)
			}
		}
		check("after the failed tick", finalized...)
		faults.failPay.Store("")
		if err := tick(10); err != nil {
			t.Fatalf("retry tick: %v", err)
		}
		check("after the retry", ids...)
	}
	t.Run("one pay item fails", func(t *testing.T) {
		run(t, func(f *finalizeFaults) { f.failPay.Store("b") }, []string{"b"})
	})
	t.Run("pays lost", func(t *testing.T) {
		run(t, func(f *finalizeFaults) { f.losePay.Store(1) }, ids)
	})
	t.Run("calibrations lost", func(t *testing.T) {
		run(t, func(f *finalizeFaults) { f.loseCal.Store(1) }, ids)
	})
}

// TestUnencodableReplyIs500: a reply encoding/json refuses (a NaN) answers
// 500 with the JSON error body, which a typed client reports as the cause,
// and a reply that encodes goes out byte for byte as the encoder writes it.
// (The status line used to go out before the encoding: 200 with an empty
// body, which the client reported as a bare EOF.)
func TestUnencodableReplyIs500(t *testing.T) {
	var rt Routes
	rt.Handle("GET /nan", EndpointNoBody(http.StatusOK, func(*http.Request) (map[string]float64, error) {
		return map[string]float64{"x": math.NaN()}, nil
	}))
	rt.Handle("GET /ok", EndpointNoBody(http.StatusOK, func(*http.Request) (map[string]any, error) {
		return map[string]any{"x": 1.5, "s": "<a&b>"}, nil
	}))
	srv := httptest.NewServer(&rt)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/nan")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var e apiError
	if resp.StatusCode != http.StatusInternalServerError || json.Unmarshal(raw, &e) != nil ||
		!strings.Contains(e.Error, "unsupported value: NaN") {
		t.Errorf("GET /nan answered %d %q, want 500 with the encoding error", resp.StatusCode, raw)
	}
	c := Client{BaseURL: srv.URL, HTTP: http.DefaultClient}
	var out map[string]float64
	if err := c.Get(&out, "nan"); err == nil || !strings.Contains(err.Error(), "unsupported value: NaN") {
		t.Errorf("client read of /nan: %v, want the encoding error", err)
	}

	resp, err = http.Get(srv.URL + "/ok")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := `{"s":"\u003ca\u0026b\u003e","x":1.5}` + "\n"; resp.StatusCode != http.StatusOK || string(raw) != want ||
		resp.Header.Get("Content-Type") != "application/json" {
		t.Errorf("GET /ok answered %d %q (%s), want 200 %q", resp.StatusCode, raw, resp.Header.Get("Content-Type"), want)
	}
}
