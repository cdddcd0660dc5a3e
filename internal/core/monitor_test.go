package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"spequlos/internal/cloud"
	"spequlos/internal/middleware"
)

// fault names one per-item port failure: the (skip+1)th call of method for
// batch during tick.
type fault struct {
	method, batch string
	tick, skip    int
}

// fakePorts is an in-memory port set: the real Information, Credit and Oracle
// modules, a scripted DG, a cloud that is a counter — and one fault to inject.
type fakePorts struct {
	credits *CreditSystem
	info    *Information // where Track tracks; only a registration reads it
	oracle  *Oracle
	dg      map[string]int  // completed tasks per batch
	workers map[string]int  // attached DG workers per batch (0 if absent)
	idle    map[string]bool // instance id → booted and holding no work
	// calls, when non-nil, counts each port method's calls per batch
	// ("lookup b").
	calls map[string]int

	tick  int
	fault fault
	// tripped is the failed batch as it stood when the fault fired.
	tripped string
}

var errInjected = errors.New("injected")

func (p *fakePorts) trip(method string, b *Batch) error {
	if p.calls != nil {
		p.calls[method+" "+b.ID]++
	}
	f := &p.fault
	if f.method != method || f.batch != b.ID || f.tick != p.tick {
		return nil
	}
	if f.skip--; f.skip >= 0 {
		return nil
	}
	f.tick = -1
	p.tripped = p.snapshot(b)
	return errInjected
}

func (p *fakePorts) Order(b *Batch, user string, credits float64) error {
	if err := p.trip("order", b); err != nil {
		return err
	}
	return p.credits.OrderQoS(user, b.ID, credits)
}

func (p *fakePorts) Track(b *Batch, size int) (err error) {
	if err = p.trip("track", b); err == nil {
		b.bi, err = p.info.Track(b.ID, b.EnvKey, size, b.RegisteredAt)
	}
	return err
}

func (p *fakePorts) Progress(bs []*Batch) {
	for _, b := range bs {
		if b.Err = p.trip("progress", b); b.Err == nil {
			done := p.dg[b.ID]
			b.Progress = middleware.Progress{Size: 100, Arrived: 100, Completed: done, EverAssigned: 100, Running: 100 - done,
				Workers: p.workers[b.ID]}
		}
	}
}

func (p *fakePorts) Sample(bs []*Batch, ss []Sample) {
	for i, b := range bs {
		if b.Err = p.trip("sample", b); b.Err == nil {
			b.bi.add(ss[i])
		}
	}
}

func (p *fakePorts) Bill(bs []*Batch) {
	for _, b := range bs {
		if b.Err = p.trip("bill", b); b.Err == nil {
			b.Applied, b.Dry, b.Err = p.credits.BillAll(b.ID, b.Charges)
		}
	}
}

func (p *fakePorts) Orders(bs []*Batch) {
	for _, b := range bs {
		if b.Err = p.trip("lookup", b); b.Err == nil {
			o, _, funded := p.credits.Lookup(b.ID)
			b.Funded, b.Remaining = funded, o.Remaining()
		}
	}
}

func (p *fakePorts) Plan(bs []*Batch) {
	for _, b := range bs {
		if b.Err = p.trip("plan", b); b.Err == nil {
			b.Plan = p.oracle.Plan(b.bi.TickView(), b.Remaining/CreditsPerCPUHour)
		}
	}
}

func (p *fakePorts) Idle(_ *Batch, inst *Instance) bool { return p.idle[inst.Info.ID] }

func (p *fakePorts) Stop(b *Batch, _ *Instance) error { return p.trip("stop", b) }

func (p *fakePorts) Launch(b *Batch) (Instance, error) {
	id := fmt.Sprintf("%s-%d", b.ID, len(b.Instances)+1)
	return Instance{Info: cloud.InstanceInfo{ID: id, State: cloud.StateRunning}}, p.trip("launch", b)
}

func (p *fakePorts) Pay(bs []*Batch) {
	for _, b := range bs {
		if b.Err = p.trip("pay", b); b.Err == nil {
			_, b.Err = p.credits.Pay(b.ID)
		}
	}
}

func (p *fakePorts) Archive(bs []*Batch) {
	for _, b := range bs {
		if b.Err = p.trip("archive", b); b.Err == nil {
			if base, actual, ok := b.bi.TickView().Execution(); ok {
				p.oracle.Calibration.Record(b.EnvKey, base, actual)
			}
		}
	}
}

// snapshot is everything a tick may change about one batch: its record and
// its ledger entry.
func (p *fakePorts) snapshot(b *Batch) string {
	o, _ := p.credits.OrderOf(b.ID)
	s := fmt.Sprintf("%s ordered=%v started=%v@%v idle=%v dry=%v final=%v since=%v order=%+v",
		b.ID, b.Ordered, b.Started, b.TriggeredAt, b.ReleaseIdle, b.Exhausted, b.Finalized, b.EligibleSince, o)
	for _, inst := range b.Instances {
		s += fmt.Sprintf(" %s/%s/%v", inst.Info.ID, inst.Info.State, inst.LastBill)
	}
	return s
}

// contractEpisode drives Monitor.Run through a scripted three-batch episode
// under a fleet cap of two and returns every batch's snapshot after each tick
// plus the final ledger. ent (3 Greedy workers) triggers at t2, loses an idle
// worker at t4 and finalizes at t6 with a refund; dry (1 worker, half a
// credit) triggers at t3, runs dry on its second bill at t5 and finalizes at
// t7; late triggers at t4, is denied while ent and dry hold the cap, is
// admitted at t6 and finalizes at t8. A fault fails its tick — the failed batch
// must then stand as it stood at the failure and its neighbours as in ref,
// the failure-free run — and the tick is run again at the same instant.
func contractEpisode(t *testing.T, f fault, ref [][]string) (ticks [][]string, ledger string) {
	t.Helper()
	script := []map[string]int{
		{"ent": 50, "dry": 50, "late": 50},
		{"ent": 92, "dry": 50, "late": 50},
		{"ent": 93, "dry": 95, "late": 50},
		{"ent": 94, "dry": 96, "late": 93},
		{"ent": 95, "dry": 97, "late": 94},
		{"ent": 100, "dry": 98, "late": 95},
		{"ent": 100, "dry": 100, "late": 96},
		{"ent": 100, "dry": 100, "late": 100},
	}
	p := &fakePorts{
		credits: NewCreditSystem(),
		oracle:  NewOracle(Strategy{Trigger: CompletionThreshold{Frac: 0.9}, Sizing: Greedy{}, Deploy: Reschedule}),
		idle:    map[string]bool{},
		fault:   f,
	}
	m := &Monitor{Ports: p}
	tiers := DefaultTierPolicy()
	tiers.FleetCap = 2
	const deposited = 100.0
	if err := p.credits.Deposit("u", deposited); err != nil {
		t.Fatal(err)
	}
	for _, spec := range []struct {
		id      string
		tier    Tier
		credits float64
	}{{"ent", TierEnterprise, 45}, {"dry", TierPremium, 0.5}, {"late", TierFree, 15}} {
		b := NewBatch(spec.id, "env", spec.tier, 0)
		b.bi, b.Ordered = NewBatchInfo(spec.id, "env", 100, 0), true
		if err := p.credits.OrderQoS("u", spec.id, spec.credits); err != nil {
			t.Fatal(err)
		}
		m.Order = append(m.Order, b)
	}
	all := append([]*Batch(nil), m.Order...)
	var w Scratch
	for k, done := range script {
		p.tick, p.dg = k+1, done
		if p.tick == 4 {
			p.idle["ent-2"] = true
		}
		now := 60 * float64(p.tick)
		err := m.Run(now, tiers, m.Due(nil), &w)
		if f.tick == p.tick {
			if !errors.Is(err, errInjected) {
				t.Fatalf("%+v: tick %d returned %v, want the injected failure", f, p.tick, err)
			}
			for i, b := range all {
				want, who := ref[k][i], "a neighbour of the failed batch"
				if b.ID == f.batch {
					want, who = p.tripped, "the failed batch"
				}
				if got := p.snapshot(b); got != want {
					t.Errorf("%+v: %s moved:\n got  %s\n want %s", f, who, got, want)
				}
			}
			err = m.Run(now, tiers, m.Due(nil), &w)
		}
		if err != nil {
			t.Fatalf("%+v: tick %d: %v", f, p.tick, err)
		}
		var snaps []string
		for _, b := range all {
			snaps = append(snaps, p.snapshot(b))
		}
		ticks = append(ticks, snaps)
	}
	a := p.credits.AccountOf("u")
	held := 0.0
	for _, b := range all {
		if o, _ := p.credits.OrderOf(b.ID); !o.Closed {
			held += o.Remaining()
		}
	}
	if a.Balance+a.Spent+held != deposited {
		t.Errorf("%+v: credits not conserved: balance %v + spent %v + held %v != %v", f, a.Balance, a.Spent, held, deposited)
	}
	if n := p.oracle.Calibration.Fit("env").Count; n != len(all) {
		t.Errorf("%+v: %d executions archived, want one per batch", f, n)
	}
	return ticks, fmt.Sprintf("%+v", a)
}

// TestPortContract states the contract between Monitor.Run and its ports
// once, for both deployments: over a scripted episode that reaches every
// apply step, and then with one per-item failure at each port method in turn,
// the failed batch changes nothing further that tick, its neighbours stand
// where the failure-free run leaves them, and the retry converges on the
// failure-free records and ledger, every credit accounted for.
func TestPortContract(t *testing.T) {
	want, wantLedger := contractEpisode(t, fault{}, nil)
	// The comparison is vacuous unless the episode reached every case.
	final := strings.Join(want[len(want)-1], "\n")
	for _, reached := range []string{
		"ent ordered=true started=true@120 idle=true dry=false final=true",            // launched at t2, finalized
		"Allocated:45 Billed:2.5 Closed:true",                                         // billed, then refunded
		"ent-2/terminated/240",                                                        // idle worker released at t4
		"dry ordered=true started=true@180 idle=true dry=true final=true",             // ran dry
		"dry-1/terminated/300",                                                        // its fleet stopped at t5
		"late ordered=true started=true@360 idle=true dry=false final=true since=240", // denied at t4 and t5
	} {
		if !strings.Contains(final, reached) {
			t.Fatalf("the episode never reached %q:\n%s", reached, final)
		}
	}
	for _, f := range []fault{
		{method: "progress", batch: "ent", tick: 3},
		{method: "sample", batch: "ent", tick: 3},
		{method: "bill", batch: "ent", tick: 3},
		{method: "bill", batch: "ent", tick: 6}, // the final bill: no finalization on top of it
		{method: "lookup", batch: "dry", tick: 3},
		{method: "plan", batch: "dry", tick: 3},
		{method: "launch", batch: "ent", tick: 2, skip: 1}, // 1 of 3 launched
		{method: "stop", batch: "dry", tick: 5},
		{method: "pay", batch: "ent", tick: 6},
		{method: "archive", batch: "ent", tick: 6},
	} {
		got, ledger := contractEpisode(t, f, want)
		for k := range want {
			for i := range want[k] {
				if got[k][i] != want[k][i] {
					t.Errorf("%+v: after tick %d:\n got  %s\n want %s", f, k+1, got[k][i], want[k][i])
				}
			}
		}
		if ledger != wantLedger {
			t.Errorf("%+v: final ledger %s, want %s", f, ledger, wantLedger)
		}
	}
}

// TestWaitSkipsLookupAndPlan: a batch below the Wait of its last plan costs
// its tick no order lookup and no plan, and the decisions are those of a tick
// that asks every time. Each case scripts one batch of 100 tasks tick by tick
// (completed, attached workers) and checks what Run asked about it.
func TestWaitSkipsLookupAndPlan(t *testing.T) {
	type tick struct {
		completed, workers int
		fail               string // a port method that fails for the batch this tick
		asked              string // the lookup and plan calls the tick makes
	}
	run := func(t *testing.T, tr Trigger, credits float64, ticks []tick, between func(int, *fakePorts)) (*Batch, *fakePorts) {
		t.Helper()
		p := &fakePorts{
			credits: NewCreditSystem(),
			oracle:  NewOracle(Strategy{Trigger: tr, Sizing: Greedy{}, Deploy: Reschedule}),
			dg:      map[string]int{}, workers: map[string]int{}, idle: map[string]bool{},
			calls: map[string]int{},
		}
		if err := p.credits.Deposit("u", 100); err != nil {
			t.Fatal(err)
		}
		b := NewBatch("b", "env", TierFree, 0)
		b.bi = NewBatchInfo("b", "env", 100, 0)
		if credits > 0 {
			if err := p.credits.OrderQoS("u", "b", credits); err != nil {
				t.Fatal(err)
			}
			b.Ordered = true
		}
		m := &Monitor{Ports: p, Batches: map[string]*Batch{"b": b}, Order: []*Batch{b}}
		var w Scratch
		for k, tk := range ticks {
			p.tick, p.dg["b"], p.workers["b"] = k+1, tk.completed, tk.workers
			if tk.fail != "" {
				p.fault = fault{method: tk.fail, batch: "b", tick: k + 1}
			}
			lookups, plans := p.calls["lookup b"], p.calls["plan b"]
			err := m.Run(60*float64(k+1), nil, m.Due(nil), &w)
			if (err != nil) != (tk.fail != "") {
				t.Fatalf("tick %d: %v", k+1, err)
			}
			asked := strings.TrimSpace(strings.Repeat("lookup ", p.calls["lookup b"]-lookups) +
				strings.Repeat("plan ", p.calls["plan b"]-plans))
			if asked != tk.asked {
				t.Fatalf("tick %d at %d completed: asked %q, want %q", k+1, tk.completed, asked, tk.asked)
			}
			if between != nil {
				between(k+1, p)
			}
		}
		return b, p
	}

	t.Run("an order placed behind the Scheduler's back", func(t *testing.T) {
		// Registered without credits: looked up every tick, never planned,
		// until the user orders with Credit directly after tick 2. Then the
		// first plan waits for 90, and the order is paid at finalization.
		b, p := run(t, CompletionThreshold{0.9}, 0, []tick{
			{completed: 50, asked: "lookup"},
			{completed: 50, asked: "lookup"},
			{completed: 55, asked: "lookup plan"},
			{completed: 60},
			{completed: 89},
			{completed: 92, asked: "lookup plan"},
			{completed: 100},
		}, func(k int, p *fakePorts) {
			if k == 2 {
				if err := p.credits.OrderQoS("u", "b", 15); err != nil {
					t.Fatal(err)
				}
			}
		})
		if !b.Ordered || !b.Finalized || b.TriggeredAt != 360 {
			t.Fatalf("ordered %v, finalized %v, triggered at %v; want true, true, 360", b.Ordered, b.Finalized, b.TriggeredAt)
		}
		if o, _ := p.credits.OrderOf("b"); !o.Closed || o.Billed <= 0 {
			t.Fatalf("order %+v: not billed and paid", o)
		}
	})

	t.Run("a failed plan keeps the Wait", func(t *testing.T) {
		// A first plan that fails leaves no Wait, so the batch is asked again;
		// a later one that fails keeps the Wait it had, so when the DG
		// re-counts below it the batch is not asked.
		b, _ := run(t, CompletionThreshold{0.9}, 15, []tick{
			{completed: 50, fail: "plan", asked: "lookup plan"},
			{completed: 50, asked: "lookup plan"},
			{completed: 60},
			{completed: 95, fail: "plan", asked: "lookup plan"},
			{completed: 85},
			{completed: 95, asked: "lookup plan"},
		}, nil)
		if b.TriggeredAt != 360 {
			t.Fatalf("triggered at %v, want 360", b.TriggeredAt)
		}
	})

	t.Run("CapacityAware fires on the tick it reaches its floor", func(t *testing.T) {
		// The ablation's CA trigger waits for 70 completed; the workers drop
		// while the batch waits, and it launches on the first tick at 70.
		b, _ := run(t, DefaultCapacityAware(), 15, []tick{
			{completed: 40, workers: 200, asked: "lookup plan"},
			{completed: 60, workers: 60},
			{completed: 69, workers: 60},
			{completed: 70, workers: 60, asked: "lookup plan"},
		}, nil)
		if !b.Started || b.TriggeredAt != 240 {
			t.Fatalf("started %v at %v, want at 240", b.Started, b.TriggeredAt)
		}
	})
}

// donePorts answers every batch as completed and every call as successful,
// allocating nothing.
type donePorts struct{}

func (donePorts) Progress(bs []*Batch) {
	for _, b := range bs {
		b.Progress = middleware.Progress{Size: 1, Arrived: 1, Completed: 1}
	}
}
func (donePorts) Order(*Batch, string, float64) error { return nil }
func (donePorts) Track(*Batch, int) error             { return nil }
func (donePorts) Sample([]*Batch, []Sample)           {}
func (donePorts) Bill([]*Batch)                       {}
func (donePorts) Orders([]*Batch)                     {}
func (donePorts) Plan([]*Batch)                       {}
func (donePorts) Idle(*Batch, *Instance) bool         { return false }
func (donePorts) Stop(*Batch, *Instance) error        { return nil }
func (donePorts) Launch(*Batch) (Instance, error)     { return Instance{}, nil }
func (donePorts) Pay([]*Batch)                        {}
func (donePorts) Archive([]*Batch)                    {}

// TestRunFinalizesWithoutAllocating: the finalizing list lives in Scratch,
// so a reused Scratch ticks a hundred completing batches without allocating.
func TestRunFinalizesWithoutAllocating(t *testing.T) {
	m := &Monitor{Ports: donePorts{}}
	due := make([]*Batch, 100)
	for i := range due {
		due[i] = NewBatch(fmt.Sprint(i), "e", TierFree, 0)
		due[i].Ordered = i%2 == 0
	}
	var w Scratch
	run := func() {
		for _, b := range due {
			b.Finalized = false
		}
		if err := m.Run(60, nil, due, &w); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if n := testing.AllocsPerRun(10, run); n != 0 {
		t.Fatalf("a tick finalizing %d batches allocated %v times with a reused Scratch", len(due), n)
	}
	for _, b := range due {
		if !b.Finalized {
			t.Fatalf("batch %s not finalized", b.ID)
		}
	}
}
