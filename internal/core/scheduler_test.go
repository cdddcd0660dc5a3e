package core

import (
	"math"
	"testing"

	"spequlos/internal/bot"
	"spequlos/internal/cloud"
	"spequlos/internal/middleware"
	"spequlos/internal/sim"
	"spequlos/internal/xwhep"
)

// slowTailScenario builds a 10-task batch on one power-1 worker: 1000 s per
// task, 90% completion at t=9000, natural completion at t=10000.
func slowTailScenario(t *testing.T, strategy Strategy, credits float64) (*sim.Engine, middleware.Server, *Service) {
	t.Helper()
	eng := sim.NewEngine()
	srv := xwhep.New(eng, xwhep.DefaultConfig())
	simCloud := cloud.NewSimCloud(eng, sim.NewRNG(7))
	cfg := Config{Strategy: strategy, MonitorPeriod: 60}
	svc := NewService(eng, simCloud, cfg)
	specs := make([]bot.Task, 10)
	for i := range specs {
		specs[i] = bot.Task{ID: i, NOps: 1000}
	}
	svc.Credits.Deposit("alice", credits)
	if err := svc.RegisterQoS("alice", "b", "test-env", len(specs), "", credits, srv); err != nil {
		t.Fatal(err)
	}
	srv.Submit(middleware.Batch{ID: "b", Tasks: specs})
	srv.WorkerJoin(&middleware.Worker{ID: 0, Power: 1})
	return eng, srv, svc
}

func runBatch(eng *sim.Engine, srv middleware.Server, id string) {
	eng.RunWhile(func() bool { return !srv.Done(id) })
}

func TestRescheduleRescuesTail(t *testing.T) {
	eng, srv, svc := slowTailScenario(t, DefaultStrategy(), 10)
	runBatch(eng, srv, "b")
	done := eng.Now()
	// Trigger at the first tick past t=9000; boot 120 s; cloud power
	// ~3000 ⇒ the duplicated last task finishes around t=9180, far before
	// the regular worker's t=10000.
	if done >= 10000 {
		t.Fatalf("completion %v: cloud never helped", done)
	}
	if done < 9000 {
		t.Fatalf("completion %v: impossible, 90%% takes 9000s", done)
	}
	u, err := svc.Usage("b")
	if err != nil {
		t.Fatal(err)
	}
	if u.InstancesStarted == 0 || u.TriggeredAt < 9000 {
		t.Fatalf("usage: %+v", u)
	}
	if u.CreditsBilled <= 0 || u.CreditsBilled > 2 {
		t.Fatalf("billed %v credits, want a small positive amount", u.CreditsBilled)
	}
	// Order must be closed with the remainder refunded.
	o, ok := svc.Credits.OrderOf("b")
	if !ok || !o.Closed {
		t.Fatalf("order not closed: %+v", o)
	}
	bal := svc.Credits.AccountOf("alice").Balance
	if math.Abs(bal-(10-u.CreditsBilled)) > 1e-6 {
		t.Fatalf("refund wrong: balance %v, billed %v", bal, u.CreditsBilled)
	}
	// Execution archived for calibration.
	if svc.Oracle.Calibration.Fit("test-env").Count != 1 {
		t.Fatal("execution not archived")
	}
}

func TestFlatCannotHelpWithoutQueuedTasks(t *testing.T) {
	strategy := Strategy{Trigger: CompletionThreshold{0.9}, Sizing: Greedy{}, Deploy: Flat}
	eng, srv, svc := slowTailScenario(t, strategy, 10)
	runBatch(eng, srv, "b")
	// XWHEP's last task is running, none pending: a flat (undedicated,
	// unprivileged) cloud worker gets nothing and Greedy stops it.
	if eng.Now() < 10000 {
		t.Fatalf("completion %v: flat cloud worker should not have helped here", eng.Now())
	}
	u, _ := svc.Usage("b")
	if u.InstancesStarted == 0 {
		t.Fatal("no instance was even started")
	}
	// All instances were stopped as idle before completion.
	for _, qb := range svc.mon.Batches {
		for _, inst := range qb.Instances {
			if inst.Live() || inst.Sim.Running() {
				t.Fatal("idle flat instance not stopped by Greedy")
			}
		}
	}
	if u.CreditsBilled >= 1 {
		t.Fatalf("billed %v: greedy idle-stop should have released credits quickly", u.CreditsBilled)
	}
}

func TestCloudDuplicationMergesResults(t *testing.T) {
	strategy := Strategy{Trigger: CompletionThreshold{0.9}, Sizing: Conservative{}, Deploy: CloudDuplication}
	eng, srv, svc := slowTailScenario(t, strategy, 10)
	runBatch(eng, srv, "b")
	done := eng.Now()
	if done >= 10000 {
		t.Fatalf("completion %v: cloud duplication did not merge results", done)
	}
	u, _ := svc.Usage("b")
	if u.InstancesStarted == 0 {
		t.Fatal("no cloud instance started")
	}
	// The primary's progress must show the full batch completed.
	p := srv.Progress("b")
	if p.Completed != 10 || p.Running != 0 {
		t.Fatalf("primary progress after merge: %+v", p)
	}
}

func TestExhaustionStopsCloudWorkers(t *testing.T) {
	// 0.05 credits = 12 cpu·s: exhausted at the first billing tick.
	eng, srv, svc := slowTailScenario(t, DefaultStrategy(), 0.05)
	runBatch(eng, srv, "b")
	if eng.Now() < 9990 {
		t.Fatalf("completion %v: underfunded cloud still rescued the tail", eng.Now())
	}
	u, _ := svc.Usage("b")
	if !u.Exhausted {
		t.Fatal("order not marked exhausted")
	}
	if u.CreditsBilled > 0.05+1e-9 {
		t.Fatalf("billed %v > allocated", u.CreditsBilled)
	}
	o, _ := svc.Credits.OrderOf("b")
	if o.Remaining() > 1e-9 {
		t.Fatalf("remaining %v after exhaustion", o.Remaining())
	}
}

func TestNoTriggerWithoutCredits(t *testing.T) {
	eng := sim.NewEngine()
	srv := xwhep.New(eng, xwhep.DefaultConfig())
	simCloud := cloud.NewSimCloud(eng, sim.NewRNG(1))
	svc := NewService(eng, simCloud, Config{Strategy: DefaultStrategy(), MonitorPeriod: 60})
	specs := make([]bot.Task, 10)
	for i := range specs {
		specs[i] = bot.Task{ID: i, NOps: 1000}
	}
	svc.RegisterQoS("alice", "b", "env", len(specs), "", 0, srv)
	srv.Submit(middleware.Batch{ID: "b", Tasks: specs})
	srv.WorkerJoin(&middleware.Worker{ID: 0, Power: 1})
	runBatch(eng, srv, "b")
	u, _ := svc.Usage("b")
	if u.InstancesStarted != 0 {
		t.Fatal("cloud started without an order")
	}
	if eng.Now() != 10000 {
		t.Fatalf("completion %v, want exactly 10000", eng.Now())
	}
}

func TestPredictionThroughService(t *testing.T) {
	eng, srv, svc := slowTailScenario(t, DefaultStrategy(), 10)
	var pred Prediction
	var perr error
	eng.At(5100, func() { pred, perr = svc.Oracle.Predict(svc.mon.Batches["b"].bi, eng.Now()) })
	runBatch(eng, srv, "b")
	if perr != nil {
		t.Fatal(perr)
	}
	// By t=5100, 5 tasks done (r=0.5) as of the last monitor sample:
	// tp ≈ 5100/0.5 = 10200.
	if pred.PredictedTime < 9000 || pred.PredictedTime > 11000 {
		t.Fatalf("prediction = %v, want ~10200", pred.PredictedTime)
	}
}

func TestRegisterValidation(t *testing.T) {
	eng := sim.NewEngine()
	srv := xwhep.New(eng, xwhep.DefaultConfig())
	svc := NewService(eng, cloud.NewSimCloud(eng, sim.NewRNG(1)), Config{Strategy: DefaultStrategy(), MonitorPeriod: 60})
	if err := svc.RegisterQoS("u", "b", "env", 10, "", 0, srv); err != nil {
		t.Fatal(err)
	}
	if err := svc.RegisterQoS("u", "b", "env", 10, "", 0, srv); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if _, err := svc.Usage("unregistered"); err == nil {
		t.Fatal("usage for unregistered batch accepted")
	}
}

// TestRefusedRegistrationMutatesNothing: RegisterQoS refused — the ledger
// short of credits, a duplicate ID, Information already tracking the batch —
// leaves no Information or Monitor record, arms no ticker, attaches no
// listener and leaves the balance as it was, on a service with batches and on
// one without. A refusal a deposit cures then lets the same request through,
// as SchedulerService.RegisterQoS does over HTTP.
func TestRefusedRegistrationMutatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name    string
		busy    bool    // batch "a" (3 of the 8 credits ordered) registered first
		id      string  // the refused request's batch
		credits float64 // what it orders
		behind  bool    // Information tracks id behind the service's back
		cured   bool    // a deposit lets the same request through
	}{
		{name: "short balance, no batches yet", id: "b", credits: 10, cured: true},
		{name: "short balance, beside a batch", busy: true, id: "b", credits: 10, cured: true},
		{name: "duplicate ID", busy: true, id: "a", credits: 2},
		{name: "tracked behind the service, no batches yet", id: "b", credits: 4, behind: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			srv := xwhep.New(eng, xwhep.DefaultConfig())
			svc := NewService(eng, cloud.NewSimCloud(eng, sim.NewRNG(1)), Config{Strategy: DefaultStrategy(), MonitorPeriod: 60})
			svc.Credits.Deposit("u", 8)
			if tc.busy {
				if err := svc.RegisterQoS("u", "a", "env", 10, "", 3, srv); err != nil {
					t.Fatal(err)
				}
			}
			if tc.behind {
				if _, err := svc.Info.Track(tc.id, "env", 10, 0); err != nil {
					t.Fatal(err)
				}
			}
			type state struct {
				tracked, registered, live, pending, listeners int
				balance                                       float64
				funded                                        bool // an open order with credits for tc.id
			}
			snapshot := func() state {
				_, _, funded := svc.Credits.Lookup(tc.id)
				return state{svc.Info.Count(), len(svc.mon.Batches), len(svc.mon.Order), eng.Pending(),
					len(svc.listening), svc.Credits.AccountOf("u").Balance, funded}
			}
			before := snapshot()
			if err := svc.RegisterQoS("u", tc.id, "env", 10, "", tc.credits, srv); err == nil {
				t.Fatal("registration accepted")
			}
			if after := snapshot(); after != before {
				t.Fatalf("the refusal mutated the service:\n before %+v\n after  %+v", before, after)
			}
			if !tc.busy && (svc.ticker != nil || eng.Pending() != 0) {
				t.Fatal("a refused first registration armed the monitor ticker")
			}
			if !tc.cured {
				return
			}
			svc.Credits.Deposit("u", tc.credits)
			if err := svc.RegisterQoS("u", tc.id, "env", 10, "", tc.credits, srv); err != nil {
				t.Fatalf("the same request after a deposit: %v", err)
			}
			if o, ok := svc.Credits.OrderOf(tc.id); !ok || o.Allocated != tc.credits || svc.mon.Batches[tc.id] == nil || svc.ticker == nil {
				t.Fatalf("the accepted request left order %+v, record %v, ticker %v", o, svc.mon.Batches[tc.id], svc.ticker)
			}
		})
	}
}

func TestTickerStopsWhenAllDone(t *testing.T) {
	eng, srv, _ := slowTailScenario(t, DefaultStrategy(), 10)
	runBatch(eng, srv, "b")
	eng.Run() // must drain: the monitor ticker has to stop itself
	if eng.Pending() != 0 {
		t.Fatalf("%d events still pending after completion", eng.Pending())
	}
}

func TestDeterministicWithAndWithoutCloudBase(t *testing.T) {
	// Two identical no-credit runs must complete at the identical instant.
	run := func() float64 {
		eng := sim.NewEngine()
		srv := xwhep.New(eng, xwhep.DefaultConfig())
		svc := NewService(eng, cloud.NewSimCloud(eng, sim.NewRNG(3)), Config{Strategy: DefaultStrategy(), MonitorPeriod: 60})
		specs := make([]bot.Task, 7)
		for i := range specs {
			specs[i] = bot.Task{ID: i, NOps: 500 + float64(i)*37}
		}
		svc.RegisterQoS("u", "b", "env", len(specs), "", 0, srv)
		srv.Submit(middleware.Batch{ID: "b", Tasks: specs})
		srv.WorkerJoin(&middleware.Worker{ID: 0, Power: 1.3})
		srv.WorkerJoin(&middleware.Worker{ID: 1, Power: 0.9})
		runBatch(eng, srv, "b")
		return eng.Now()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic: %v vs %v", a, b)
	}
}

// TestMultiBoTArbitration runs two QoS batches from different users
// through one service: credits are accounted per order, cloud workers are
// dedicated per batch, and both executions finish with consistent billing
// (§3.3's multi-user arbitration).
func TestMultiBoTArbitration(t *testing.T) {
	eng := sim.NewEngine()
	srv := xwhep.New(eng, xwhep.DefaultConfig())
	simCloud := cloud.NewSimCloud(eng, sim.NewRNG(7))
	svc := NewService(eng, simCloud, Config{Strategy: DefaultStrategy(), MonitorPeriod: 60})

	// 11 tasks on 2 workers leave a lone straggler after 90%% completion —
	// a genuine tail in both batches.
	mkBatch := func(id string, nops float64) middleware.Batch {
		specs := make([]bot.Task, 11)
		for i := range specs {
			specs[i] = bot.Task{ID: i, NOps: nops}
		}
		return middleware.Batch{ID: id, Tasks: specs}
	}
	for _, u := range []struct {
		user, batch string
		credits     float64
	}{{"alice", "a", 10}, {"bob", "b", 10}} {
		svc.Credits.Deposit(u.user, u.credits)
		if err := svc.RegisterQoS(u.user, u.batch, "env", 11, "", u.credits, srv); err != nil {
			t.Fatal(err)
		}
	}
	srv.Submit(mkBatch("a", 1000))
	srv.Submit(mkBatch("b", 1000))
	// Two slow workers: each batch takes ~20000 s interleaved without help.
	srv.WorkerJoin(&middleware.Worker{ID: 0, Power: 1})
	srv.WorkerJoin(&middleware.Worker{ID: 1, Power: 1})
	eng.RunWhile(func() bool { return !srv.Done("a") || !srv.Done("b") })

	for _, batch := range []string{"a", "b"} {
		o, ok := svc.Credits.OrderOf(batch)
		if !ok || !o.Closed {
			t.Fatalf("order %s not closed: %+v", batch, o)
		}
		u, _ := svc.Usage(batch)
		if u.InstancesStarted == 0 {
			t.Fatalf("batch %s never got cloud support", batch)
		}
	}
	// Billing isolation: each user paid only their own usage.
	for _, user := range []string{"alice", "bob"} {
		a := svc.Credits.AccountOf(user)
		if a.Spent <= 0 || a.Spent > 10 {
			t.Fatalf("%s spent %v", user, a.Spent)
		}
		if got := a.Balance + a.Spent; got != 10 {
			t.Fatalf("%s conservation broken: %v", user, got)
		}
	}
	// Cloud workers were dedicated: no instance of batch a served batch b.
	for id, qb := range svc.mon.Batches {
		for _, inst := range qb.Instances {
			if inst.Sim.Worker.DedicatedBatch != id {
				t.Fatalf("instance for %s dedicated to %s", id, inst.Sim.Worker.DedicatedBatch)
			}
		}
	}
}
