package service

import (
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

// multiDG scripts per-batch progress under test control and counts every
// gateway call, so tests can assert the monitor loop's poll economy. Its
// reply leaves out the batches in omit and names no idle instance.
type multiDG struct {
	mu        sync.Mutex
	progress  map[string]middleware.Progress
	omit      map[string]bool
	gwCalls   int
	lastBatch []string // the ids of the latest poll
}

func newMultiDG() *multiDG {
	return &multiDG{progress: map[string]middleware.Progress{}, omit: map[string]bool{}}
}

func (d *multiDG) set(id string, p middleware.Progress) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.progress[id] = p
}

func (d *multiDG) ProgressBatch(ids []string) (map[string]middleware.Progress, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.gwCalls++
	d.lastBatch = append([]string(nil), ids...)
	out := make(map[string]middleware.Progress, len(ids))
	for _, id := range ids {
		if !d.omit[id] {
			out[id] = d.progress[id]
		}
	}
	return out, nil
}

func (d *multiDG) WorkerURL() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.gwCalls++
	return "http://dg.example:4321"
}

func (d *multiDG) setOmit(id string, omit bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.omit[id] = omit
}

func (d *multiDG) calls() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.gwCalls
}

// countingTransport counts the requests a module client sends.
type countingTransport struct{ n *atomic.Int64 }

func (c countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.n.Add(1)
	return http.DefaultTransport.RoundTrip(r)
}

// TestStepBatchedPollingIsO1 is the tentpole scaling assertion: one monitor
// tick over N registered batches costs ONE gateway call and a fixed number of
// module round trips — one bulk request per module and step — whether N is
// 50 or 500, under Conservative and under Greedy, whose idle release reads
// the poll. Half the batches sit below the 90% trigger; the other half start
// on the first tick (which also asks the gateway for the worker URL once per
// launch), which costs samples, order lookups, plans and the Oracle's own
// status fetch. From the second tick the started half is billed, and the half
// below the trigger waits out the Wait its first plan carried, so a tick costs
// samples and bills. Then the waiting half reaches the trigger region, and
// that tick runs every step there is: samples, bills, order lookups, plans
// and the Oracle's status fetch. Then every batch completes at once, and the
// tick that finalizes them all costs samples, bills (the final usage), pays,
// calibrations and the Oracle's own status fetch for them.
func TestStepBatchedPollingIsO1(t *testing.T) {
	for _, label := range []string{core.DefaultStrategy().Label(), "9C-G-R"} {
		t.Run(label, func(t *testing.T) { testStepBatchedPollingIsO1(t, label) })
	}
}

func testStepBatchedPollingIsO1(t *testing.T, label string) {
	strategy, err := core.StrategyByLabel(label)
	if err != nil {
		t.Fatal(err)
	}
	tickCost := func(batches int) (first, waiting, trigger, final int64) {
		dg := newMultiDG()
		driver := cloud.NewMockDriver("mock", time.Second, 0.10)
		stack := newStack(t, StackConfig{
			Strategy: strategy,
			Registry: cloud.NewRegistry(driver),
			DG:       dg,
		})
		now := time.Unix(0, 0).UTC()
		stack.SetClock(func() time.Time { return now })
		driver.SetClock(func() time.Time { return now })
		var sent atomic.Int64
		counting := &http.Client{Transport: countingTransport{&sent}}
		stack.InfoClient.HTTP, stack.CreditClient.HTTP, stack.OracleClient.HTTP = counting, counting, counting

		if err := stack.CreditClient.Deposit("u", 1e6); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < batches; i++ {
			id := fmt.Sprintf("b%03d", i)
			done := 50 + 45*(i%2) // odd batches are past the 90% trigger
			dg.set(id, middleware.Progress{Size: 100, Arrived: 100, Completed: done, EverAssigned: 100, Running: 100 - done})
			if err := stack.Scheduler.RegisterQoS(QoSRequest{
				User: "u", BatchID: id, EnvKey: "e", Size: 100, Credits: 30, Provider: "mock", Image: "img",
			}); err != nil {
				t.Fatal(err)
			}
		}
		// step runs one tick and returns its module round trips and its
		// gateway calls beyond the worker URL of each instance it launched.
		step := func() (modules int64, dgCalls int) {
			now = now.Add(time.Minute)
			before, dgBefore, instBefore := sent.Load(), dg.calls(), len(stack.Scheduler.Instances())
			if err := stack.Scheduler.Step(); err != nil {
				t.Fatal(err)
			}
			launched := len(stack.Scheduler.Instances()) - instBefore
			return sent.Load() - before, dg.calls() - dgBefore - launched
		}
		var cost [3]int64
		for k := range cost {
			var dgCalls int
			if cost[k], dgCalls = step(); dgCalls != 1 {
				t.Fatalf("%d batches: tick %d made %d DG calls beyond its launches, want 1", batches, k+1, dgCalls)
			}
		}
		if got := len(stack.Scheduler.Instances()); got < batches/2 {
			t.Fatalf("%d batches: only %d instances, the triggered half never started", batches, got)
		}
		if o, err := stack.CreditClient.OrderOf("b001"); err != nil || o.Billed <= 0 {
			t.Fatalf("%d batches: started batch never billed: %+v, %v", batches, o, err)
		}
		if cost[1] != cost[2] {
			t.Fatalf("%d batches: waiting ticks cost %d then %d module round trips", batches, cost[1], cost[2])
		}

		for i := 0; i < batches; i += 2 {
			dg.set(fmt.Sprintf("b%03d", i), middleware.Progress{Size: 100, Arrived: 100, Completed: 92, EverAssigned: 100, Running: 8})
		}
		var dgCalls int
		if trigger, dgCalls = step(); dgCalls != 1 {
			t.Fatalf("%d batches: the trigger tick made %d DG calls beyond its launches, want 1", batches, dgCalls)
		}
		if got := len(stack.Scheduler.Instances()); got < batches {
			t.Fatalf("%d batches: only %d instances, the half that reached the trigger never started", batches, got)
		}

		for i := 0; i < batches; i++ {
			dg.set(fmt.Sprintf("b%03d", i), middleware.Progress{Size: 100, Arrived: 100, Completed: 100, EverAssigned: 100})
		}
		if final, dgCalls = step(); dgCalls != 1 {
			t.Fatalf("%d batches: the completion tick made %d DG calls, want 1", batches, dgCalls)
		}
		for i := 0; i < batches; i++ {
			if st, err := stack.Scheduler.Status(fmt.Sprintf("b%03d", i)); err != nil || !st.Finalized {
				t.Fatalf("%d batches: b%03d not finalized by the completion tick: %+v, %v", batches, i, st, err)
			}
		}
		if cal, err := stack.OracleClient.Calibration("e"); err != nil || cal.Count != batches {
			t.Fatalf("%d batches: calibration %+v, %v; want one archived execution per batch", batches, cal, err)
		}
		return cost[0], cost[1], trigger, final
	}
	first50, waiting50, trigger50, final50 := tickCost(50)
	first500, waiting500, trigger500, final500 := tickCost(500)
	if first50 != first500 || waiting50 != waiting500 || trigger50 != trigger500 || final50 != final500 {
		t.Fatalf("module round trips per tick grew with the batch count: %d/%d/%d/%d at 50 batches, %d/%d/%d/%d at 500",
			first50, waiting50, trigger50, final50, first500, waiting500, trigger500, final500)
	}
	// samples, lookups, plans, statuses.
	if first50 != 4 {
		t.Fatalf("the first tick made %d module round trips, want 4", first50)
	}
	// samples and bills: no batch is worth a lookup or a plan.
	if waiting50 != 2 {
		t.Fatalf("a tick with every unstarted batch below its Wait made %d module round trips, want 2", waiting50)
	}
	// samples, bills, lookups, plans, statuses.
	if trigger50 != 5 {
		t.Fatalf("the tick that reaches the trigger made %d module round trips, want 5", trigger50)
	}
	// samples, bills, pays, calibrations, and the Oracle's statuses.
	if final50 != 5 {
		t.Fatalf("the tick finalizing every batch made %d module round trips, want 5", final50)
	}
}

// parkLimit bounds how long a parked request waits for its release, longer
// than any wait of a test on it: a park the test never releases fails the
// parked call instead of hanging the test in its servers' Close.
const parkLimit = 20 * time.Second

// park signals on parked, unless a signal already waits there, and holds the
// caller until release is closed (true) or parkLimit has passed (false).
func park(parked chan<- struct{}, release <-chan struct{}) bool {
	select {
	case parked <- struct{}{}:
	default:
	}
	select {
	case <-release:
		return true
	case <-time.After(parkLimit):
		return false
	}
}

// faultyCredit is the Credit module behind a proxy that can lose or park
// billing requests (single or bulk).
type faultyCredit struct {
	next     http.Handler
	failNext atomic.Int64  // how many billing requests to answer 500, unapplied
	park     chan struct{} // non-nil: billing requests wait until it is closed
	parked   chan struct{} // signalled when a request parks
}

func (f *faultyCredit) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost && strings.Contains(r.URL.Path, "bill") {
		if f.failNext.Add(-1) >= 0 {
			writeErr(w, http.StatusInternalServerError, fmt.Errorf("credit store unavailable"))
			return
		}
		if f.park != nil && !park(f.parked, f.park) {
			writeErr(w, http.StatusGatewayTimeout, fmt.Errorf("billing request parked past %v", parkLimit))
			return
		}
	}
	f.next.ServeHTTP(w, r)
}

// billingStack is a one-batch deployment whose fleet of n workers starts on
// the first tick, with Credit behind a faultyCredit.
func billingStack(t *testing.T, n int) (stack *Stack, fc *faultyCredit, driver *cloud.MockDriver, advance func(time.Duration)) {
	t.Helper()
	dg := newMultiDG()
	driver = cloud.NewMockDriver("mock", time.Second, 0.10)
	stack = newStack(t, StackConfig{
		Strategy: core.Strategy{Trigger: core.CompletionThreshold{Frac: 0.9}, Sizing: core.Greedy{}, Deploy: core.Reschedule},
		Registry: cloud.NewRegistry(driver),
		DG:       dg,
	})
	var nowNS atomic.Int64
	clock := func() time.Time { return time.Unix(0, nowNS.Load()).UTC() }
	stack.SetClock(clock)
	driver.SetClock(clock)
	advance = func(d time.Duration) { nowNS.Add(int64(d)) }

	fc = &faultyCredit{next: stack.Credit, parked: make(chan struct{}, 1)}
	proxy := httptest.NewServer(fc)
	t.Cleanup(proxy.Close)
	stack.CreditClient.BaseURL = proxy.URL

	if err := stack.CreditClient.Deposit("u", 1000); err != nil {
		t.Fatal(err)
	}
	if err := stack.Scheduler.RegisterQoS(QoSRequest{
		User: "u", BatchID: "b", EnvKey: "e", Size: 100,
		Credits: float64(n) * core.CreditsPerCPUHour, Provider: "mock", Image: "img",
	}); err != nil {
		t.Fatal(err)
	}
	dg.set("b", middleware.Progress{Size: 100, Arrived: 100, Completed: 95, EverAssigned: 100, Running: 5})
	advance(time.Minute)
	if err := stack.Scheduler.Step(); err != nil {
		t.Fatal(err)
	}
	if st, _ := stack.Scheduler.Status("b"); len(st.Instances) != n {
		t.Fatalf("fleet of %d, want %d", len(st.Instances), n)
	}
	return stack, fc, driver, advance
}

// TestFailedBillKeepsUsageWindowOpen: a billing request Credit never applied
// must not advance LastBill. One tick's bill is lost mid-run; the next tick
// charges both periods, and the total equals wall-clock usage × rate.
func TestFailedBillKeepsUsageWindowOpen(t *testing.T) {
	const workers, ticks = 3, 6
	stack, fc, _, advance := billingStack(t, workers)
	failed := 0
	for k := 1; k <= ticks; k++ {
		if k == 3 {
			fc.failNext.Store(1)
		}
		advance(time.Minute)
		if err := stack.Scheduler.Step(); err != nil {
			failed++
		}
	}
	if failed != 1 {
		t.Fatalf("%d ticks reported an error, want exactly the one whose bill was lost", failed)
	}
	o, err := stack.CreditClient.OrderOf("b")
	if err != nil {
		t.Fatal(err)
	}
	want := workers * ticks * 60.0 / 3600 * core.CreditsPerCPUHour
	if math.Abs(o.Billed-want) > 1e-9 {
		t.Fatalf("billed %.12f credits for %d workers × %d minutes, want %.12f", o.Billed, workers, ticks, want)
	}
}

// stepBatch is one tick over the batch id alone, at the Scheduler's clock:
// the step core.Driver takes at a batch's completion.
func stepBatch(s *SchedulerService, id string) error {
	return s.Monitor().Step(unixSeconds(s.Now()), s.TierPolicy, id)
}

// parkingDriver parks Terminate until released.
type parkingDriver struct {
	cloud.Driver
	park, parked chan struct{}
}

func (d parkingDriver) Terminate(id string) error {
	if !park(d.parked, d.park) {
		return fmt.Errorf("terminate of %s parked past %v", id, parkLimit)
	}
	return d.Driver.Terminate(id)
}

// TestStatusNotBlockedByRemoteCalls: the Scheduler holds no lock across a
// call to Credit or to a cloud driver, so GET /qos/{id} readers are served
// while a tick is parked in one.
func TestStatusNotBlockedByRemoteCalls(t *testing.T) {
	statusReturns := func(t *testing.T, stack *Stack, parked <-chan struct{}, release func()) {
		t.Helper()
		// Released before the servers close, however the test ends.
		release = sync.OnceFunc(release)
		t.Cleanup(release)
		stepped := make(chan error, 1)
		go func() { stepped <- stack.Scheduler.Step() }()
		select {
		case <-parked:
		case <-time.After(10 * time.Second):
			t.Fatal("the tick never reached the parked call")
		}
		read := make(chan error, 1)
		go func() {
			_, err := stack.Scheduler.Status("b")
			stack.Scheduler.Instances()
			read <- err
		}()
		select {
		case err := <-read:
			if err != nil {
				t.Error(err)
			}
		case <-time.After(10 * time.Second):
			t.Error("Status blocked behind a tick parked in a remote call")
		}
		release()
		if err := <-stepped; err != nil {
			t.Error(err)
		}
	}
	t.Run("bill", func(t *testing.T) {
		stack, fc, _, advance := billingStack(t, 2)
		fc.park = make(chan struct{})
		advance(time.Minute)
		statusReturns(t, stack, fc.parked, func() { close(fc.park) })
	})
	t.Run("terminate", func(t *testing.T) {
		stack, _, driver, advance := billingStack(t, 1)
		pd := parkingDriver{Driver: driver, park: make(chan struct{}), parked: make(chan struct{}, 1)}
		stack.Scheduler.registry = cloud.NewRegistry(pd)
		// One worker-hour of credits: the second hour's bill runs the order
		// dry and the tick stops the fleet.
		advance(2 * time.Hour)
		statusReturns(t, stack, pd.parked, func() { close(pd.park) })
		if st, _ := stack.Scheduler.Status("b"); !st.Exhausted || st.Instances[0].State != cloud.StateTerminated {
			t.Fatalf("fleet not stopped: %+v", st)
		}
	})
}

// TestStepWhileTickParkedReturns: one tick runs at a time. While a tick is
// parked in its bill, a POST /scheduler/step and a one-batch step of the
// same batch each return nil at once, doing nothing; once the park is released
// the batch has been launched once and its window billed once.
func TestStepWhileTickParkedReturns(t *testing.T) {
	const workers = 2
	stack, fc, driver, advance := billingStack(t, workers)
	fc.park = make(chan struct{})
	// Released before the servers close, however the test ends: a second
	// tick parked behind the first would otherwise hold them open.
	release := sync.OnceFunc(func() { close(fc.park) })
	t.Cleanup(release)
	advance(time.Minute)
	stepped := make(chan error, 1)
	go func() { stepped <- stack.Scheduler.Step() }()
	select {
	case <-fc.parked:
	case <-time.After(10 * time.Second):
		t.Fatal("the tick never reached the parked bill")
	}
	others := make(chan error, 2)
	go func() {
		resp, err := http.Post(stack.URL+"/scheduler/step", "application/json", nil)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("POST /scheduler/step: status %d", resp.StatusCode)
			}
		}
		others <- err
	}()
	go func() { others <- stepBatch(stack.Scheduler, "b") }()
	for range 2 {
		select {
		case err := <-others:
			if err != nil {
				t.Error(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a step waited for the parked tick")
		}
	}
	release()
	if err := <-stepped; err != nil {
		t.Fatal(err)
	}
	if st, _ := stack.Scheduler.Status("b"); len(st.Instances) != workers || len(driver.List()) != workers {
		t.Errorf("%d instances managed, %d live, want %d launched once", len(st.Instances), len(driver.List()), workers)
	}
	o, err := stack.CreditClient.OrderOf("b")
	if err != nil {
		t.Fatal(err)
	}
	if want := workers * 60.0 / 3600 * core.CreditsPerCPUHour; math.Abs(o.Billed-want) > 1e-9 {
		t.Errorf("billed %v credits for one minute of %d workers, want %v", o.Billed, workers, want)
	}
}

// The Scheduler's order lists live batches only: a finalized batch leaves it at
// the next whole-fleet tick, the others keep their registration order, no
// later tick polls or claims the finalized one, and GET /qos/{id} still
// answers for it.
func TestLiveOrderDropsFinalizedBatches(t *testing.T) {
	dg := newMultiDG()
	stack := newStack(t, StackConfig{
		Strategy: core.DefaultStrategy(),
		Registry: cloud.NewRegistry(cloud.NewMockDriver("mock", time.Second, 0.10)),
		DG:       dg,
	})
	if err := stack.CreditClient.Deposit("u", 30); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b", "c"} {
		dg.set(id, middleware.Progress{Size: 10, Arrived: 10, Completed: 5, EverAssigned: 10, Running: 5})
		if err := stack.Scheduler.RegisterQoS(QoSRequest{
			User: "u", BatchID: id, EnvKey: "e", Size: 10, Credits: 10, Provider: "mock", Image: "img",
		}); err != nil {
			t.Fatal(err)
		}
	}
	step := func() {
		t.Helper()
		if err := stack.Scheduler.Step(); err != nil {
			t.Fatal(err)
		}
	}
	order := func() string {
		stack.Scheduler.mon.Mu.Lock()
		defer stack.Scheduler.mon.Mu.Unlock()
		var ids []string
		for _, qb := range stack.Scheduler.mon.Order {
			ids = append(ids, qb.ID)
		}
		return strings.Join(ids, " ")
	}
	step()
	dg.set("b", middleware.Progress{Size: 10, Arrived: 10, Completed: 10, EverAssigned: 10})
	step() // finalizes b
	if st, err := stack.Scheduler.Status("b"); err != nil || !st.Finalized {
		t.Fatalf("b not finalized: %+v, %v", st, err)
	}
	if err := stepBatch(stack.Scheduler, "a"); err != nil { // a one-batch tick leaves the order alone
		t.Fatal(err)
	}
	if got := order(); got != "a b c" {
		t.Fatalf("order before the next whole-fleet tick = %q, want %q", got, "a b c")
	}
	step()
	if got := order(); got != "a c" {
		t.Fatalf("order after the tick that follows b's finalization = %q, want %q", got, "a c")
	}
	if got := strings.Join(dg.lastBatch, " "); got != "a c" {
		t.Fatalf("that tick polled %q, want %q", got, "a c")
	}
	if st, err := stack.Scheduler.Status("b"); err != nil || !st.Finalized {
		t.Fatalf("Status(b) once out of the order: %+v, %v", st, err)
	}
	if err := stepBatch(stack.Scheduler, "b"); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(dg.lastBatch, " "); got != "a c" {
		t.Fatalf("a one-batch tick on finalized b polled %q", got)
	}
}

// TestOmittedBatchFailsAlone: a batch the DG reply leaves out sits the tick
// out with its own error and is polled again on the next one; the batches the
// reply answers for carry on as if it were not there.
func TestOmittedBatchFailsAlone(t *testing.T) {
	dg := newMultiDG()
	driver := cloud.NewMockDriver("mock", time.Second, 0.10)
	stack := newStack(t, StackConfig{Strategy: core.DefaultStrategy(), Registry: cloud.NewRegistry(driver), DG: dg})
	now := time.Unix(0, 0).UTC()
	stack.SetClock(func() time.Time { return now })
	driver.SetClock(func() time.Time { return now })
	if err := stack.CreditClient.Deposit("u", 300); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b", "c"} {
		// Past the 90% trigger: a polled batch starts cloud workers at once.
		dg.set(id, middleware.Progress{Size: 100, Arrived: 100, Completed: 95, EverAssigned: 100, Running: 5})
		if err := stack.Scheduler.RegisterQoS(QoSRequest{
			User: "u", BatchID: id, EnvKey: "e", Size: 100, Credits: 90, Provider: "mock", Image: "img",
		}); err != nil {
			t.Fatal(err)
		}
	}
	samples := func(id string) int {
		t.Helper()
		st, err := stack.InfoClient.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		return st.Samples
	}

	dg.setOmit("b", true)
	now = now.Add(time.Minute)
	if err := stack.Scheduler.Step(); err == nil || !strings.Contains(err.Error(), `scheduler: DG reply omitted batch "b"`) {
		t.Fatalf("tick error %v, want the omitted batch named", err)
	}
	for _, id := range []string{"a", "c"} {
		if st, _ := stack.Scheduler.Status(id); !st.Started || len(st.Instances) == 0 || samples(id) != 1 {
			t.Fatalf("%s did not carry on beside the omitted batch: %+v, %d samples", id, st, samples(id))
		}
	}
	if st, _ := stack.Scheduler.Status("b"); st.Started || samples("b") != 0 {
		t.Fatalf("omitted batch b was stepped: %+v, %d samples", st, samples("b"))
	}

	dg.setOmit("b", false)
	now = now.Add(time.Minute)
	if err := stack.Scheduler.Step(); err != nil {
		t.Fatal(err)
	}
	if st, _ := stack.Scheduler.Status("b"); !st.Started || samples("b") != 1 {
		t.Fatalf("b not retried on the next tick: %+v, %d samples", st, samples("b"))
	}
	if got := strings.Join(dg.lastBatch, " "); got != "a b c" {
		t.Fatalf("the retry tick polled %q, want every batch", got)
	}
}

// TestTierAdmissionCaps pins the deployable Scheduler's tier gating: under a
// fleet cap of one, the enterprise batch gets the cloud workers although a
// free batch registered first, the denied batch keeps retrying, and the slot
// passes to it once the holder finalizes. Registration rejects unknown tier
// names outright. Under a cap of three and three tiers, a contended tick
// admits exactly the set core.TierPolicy.Admit picks from the same candidates.
func TestTierAdmissionCaps(t *testing.T) {
	script := newMultiDG()
	driver := cloud.NewMockDriver("mock", time.Second, 0.10)
	stack := newStack(t, StackConfig{
		Strategy: core.DefaultStrategy(),
		Registry: cloud.NewRegistry(driver),
		DG:       script,
	})
	epoch := time.Unix(0, 0).UTC()
	now := epoch
	stack.SetClock(func() time.Time { return now })
	driver.SetClock(func() time.Time { return now })

	stack.Scheduler.TierPolicy = core.DefaultTierPolicy()
	stack.Scheduler.TierPolicy.FleetCap = 1

	if err := stack.Scheduler.RegisterQoS(QoSRequest{
		User: "u", BatchID: "x", EnvKey: "e", Size: 10, Tier: "platinum",
	}); err == nil {
		t.Fatal("unknown tier accepted")
	}

	for _, b := range []struct{ id, tier string }{{"fr", "free"}, {"ent", "enterprise"}} {
		script.set(b.id, middleware.Progress{Size: 100, Arrived: 100,
			Completed: 92, EverAssigned: 100, Running: 8})
		if err := stack.CreditClient.Deposit("u", 200); err != nil {
			t.Fatal(err)
		}
		if err := stack.Scheduler.RegisterQoS(QoSRequest{
			User: "u", BatchID: b.id, EnvKey: "e", Size: 100,
			Credits: 90, Tier: b.tier, Provider: "mock", Image: "img",
		}); err != nil {
			t.Fatal(err)
		}
	}

	// Both batches are past the trigger; the single fleet slot goes to the
	// higher tier, whatever the registration order, and the other is denied
	// for as long as it is held.
	for i := 0; i < 3; i++ {
		now = now.Add(60 * time.Second)
		if err := stack.Scheduler.Step(); err != nil {
			t.Fatal(err)
		}
	}
	ent, _ := stack.Scheduler.Status("ent")
	fr, _ := stack.Scheduler.Status("fr")
	if !ent.Started || ent.Tier != "enterprise" {
		t.Fatalf("enterprise batch not serviced: %+v", ent)
	}
	if fr.Started {
		t.Fatalf("free batch started despite full fleet: %+v", fr)
	}

	// The holder finishes; its finalization frees the slot and the denied
	// batch is admitted on the next tick.
	script.set("ent", middleware.Progress{Size: 100, Arrived: 100,
		Completed: 100, EverAssigned: 100})
	for i := 0; i < 2; i++ {
		now = now.Add(60 * time.Second)
		if err := stack.Scheduler.Step(); err != nil {
			t.Fatal(err)
		}
	}
	ent, _ = stack.Scheduler.Status("ent")
	fr, _ = stack.Scheduler.Status("fr")
	if !ent.Finalized {
		t.Fatalf("enterprise batch did not finalize: %+v", ent)
	}
	if !fr.Started {
		t.Fatalf("free batch still denied after the slot freed: %+v", fr)
	}

	t.Run("three tiers contend", func(t *testing.T) {
		script := newMultiDG()
		driver := cloud.NewMockDriver("mock", time.Second, 0.10)
		stack := newStack(t, StackConfig{
			Strategy: core.DefaultStrategy(),
			Registry: cloud.NewRegistry(driver),
			DG:       script,
		})
		now := time.Unix(0, 0).UTC()
		stack.SetClock(func() time.Time { return now })
		driver.SetClock(func() time.Time { return now })
		policy := core.DefaultTierPolicy()
		policy.FleetCap = 3
		stack.Scheduler.TierPolicy = policy

		progress := func(id string, completed int) {
			script.set(id, middleware.Progress{Size: 100, Arrived: 100,
				Completed: completed, EverAssigned: 100, Running: 100 - completed})
		}
		batches := []struct{ id, tier string }{{"f1", "free"}, {"p1", "premium"}, {"f2", "free"},
			{"e1", "enterprise"}, {"p2", "premium"}, {"e2", "enterprise"}}
		if err := stack.CreditClient.Deposit("u", 600); err != nil {
			t.Fatal(err)
		}
		for _, b := range batches {
			progress(b.id, 50)
			if err := stack.Scheduler.RegisterQoS(QoSRequest{
				User: "u", BatchID: b.id, EnvKey: "e", Size: 100,
				Credits: 90, Tier: b.tier, Provider: "mock", Image: "img",
			}); err != nil {
				t.Fatal(err)
			}
		}
		step := func() map[string]bool {
			now = now.Add(60 * time.Second)
			if err := stack.Scheduler.Step(); err != nil {
				t.Fatal(err)
			}
			started := map[string]bool{}
			for _, b := range batches {
				if st, _ := stack.Scheduler.Status(b.id); st.Started {
					started[b.id] = true
				}
			}
			return started
		}

		// Two batches fire with slots to spare: both start.
		progress("f1", 92)
		progress("p1", 92)
		if got := step(); len(got) != 2 || !got["f1"] || !got["p1"] {
			t.Fatalf("uncontended tick started %v, want f1 and p1", got)
		}
		// The other four fire in one tick with one slot left.
		var cands []core.TierCandidate
		for _, b := range batches[2:] {
			progress(b.id, 92)
			cands = append(cands, core.TierCandidate{BatchID: b.id, Tier: core.Tier(b.tier)})
		}
		want := policy.Admit(0, map[core.Tier]int{core.TierFree: 1, core.TierPremium: 1}, cands)
		got := step()
		for _, c := range cands {
			if got[c.BatchID] != want[c.BatchID] {
				t.Errorf("%s: started %v, TierPolicy.Admit says %v", c.BatchID, got[c.BatchID], want[c.BatchID])
			}
		}
		if len(want) != 1 || !want["e1"] {
			t.Fatalf("TierPolicy.Admit picked %v, the scenario expects e1 alone", want)
		}
		// The fleet is full: the three still waiting stay denied.
		if got := step(); len(got) != 3 {
			t.Fatalf("a full fleet admitted more: %v", got)
		}
	})
}

// TestCapacityAwareOverHTTP drives the tail-anticipation trigger through the
// whole stack: the Scheduler forwards the DG's attached-worker count with
// each sample, Information keeps the peak, and the Oracle's /plans fires on a
// capacity drop at 76% completion — below the trigger's 90% fallback, where
// only the infrastructure signal can fire it.
func TestCapacityAwareOverHTTP(t *testing.T) {
	script := newMultiDG()
	driver := cloud.NewMockDriver("mock", time.Second, 0.10)
	stack := newStack(t, StackConfig{
		Strategy: core.Strategy{Trigger: core.DefaultCapacityAware(), Sizing: core.Conservative{}, Deploy: core.Reschedule},
		Registry: cloud.NewRegistry(driver),
		DG:       script,
	})
	now := time.Unix(0, 0).UTC()
	stack.SetClock(func() time.Time { return now })
	driver.SetClock(func() time.Time { return now })

	if err := stack.CreditClient.Deposit("u", 100); err != nil {
		t.Fatal(err)
	}
	if err := stack.Scheduler.RegisterQoS(QoSRequest{
		User: "u", BatchID: "b", EnvKey: "e", Size: 100, Credits: 90, Provider: "mock", Image: "img",
	}); err != nil {
		t.Fatal(err)
	}
	step := func(completed, workers int) QoSStatus {
		now = now.Add(60 * time.Second)
		script.set("b", middleware.Progress{Size: 100, Arrived: 100, Completed: completed,
			EverAssigned: 100, Running: 100 - completed, Workers: workers})
		if err := stack.Scheduler.Step(); err != nil {
			t.Fatal(err)
		}
		st, err := stack.Scheduler.Status("b")
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	step(40, 200)
	if st := step(75, 190); st.Started {
		t.Fatalf("started with healthy capacity: %+v", st)
	}
	plan := func() PlanResult {
		return stack.OracleClient.Plans([]PlanRequest{{BatchID: "b", CreditCPUHours: 6}})[0]
	}
	if r := plan(); r.Error != "" || r.Plan.Start {
		t.Fatalf("/plans with healthy capacity: %+v", r)
	}
	// 70% of the workers vanish.
	st := step(76, 60)
	if !st.Started || len(st.Instances) == 0 {
		t.Fatalf("the capacity drop did not start cloud workers: %+v", st)
	}
	info, err := stack.InfoClient.Status("b")
	if err != nil || info.PeakWorkers != 200 || info.LastSample.Workers != 60 {
		t.Fatalf("Information's view: peak %d, now %d workers, %v", info.PeakWorkers, info.LastSample.Workers, err)
	}
	if r := plan(); r.Error != "" || !r.Plan.Start || r.Plan.Reason != "trigger CA fired" {
		t.Fatalf("/plans after the drop: %+v", r)
	}
}
