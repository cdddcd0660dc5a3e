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
	oracle  *Oracle
	dg      map[string]int  // completed tasks per batch
	idle    map[string]bool // instance id → booted and holding no work

	tick  int
	fault fault
	// tripped is the failed batch as it stood when the fault fired.
	tripped string
}

var errInjected = errors.New("injected")

func (p *fakePorts) trip(method string, b *Batch) error {
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

func (p *fakePorts) Progress(bs []*Batch) {
	for _, b := range bs {
		if b.Err = p.trip("progress", b); b.Err == nil {
			done := p.dg[b.ID]
			b.Progress = middleware.Progress{Size: 100, Arrived: 100, Completed: done, EverAssigned: 100, Running: 100 - done}
		}
	}
}

func (p *fakePorts) Sample(now float64, bs []*Batch) {
	for _, b := range bs {
		if b.Err = p.trip("sample", b); b.Err == nil {
			pr := b.Progress
			b.bi.AddSampleWorkers(now, pr.Completed, pr.EverAssigned, pr.Queued, pr.Running, pr.Workers)
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
			b.Plan = p.oracle.Plan(b.bi.View(), b.Remaining/CreditsPerCPUHour)
		}
	}
}

func (p *fakePorts) Idle(_ *Batch, inst *Instance) bool { return p.idle[inst.Info.ID] }

func (p *fakePorts) Stop(b *Batch, _ *Instance) error { return p.trip("stop", b) }

func (p *fakePorts) Launch(b *Batch) (Instance, error) {
	id := fmt.Sprintf("%s-%d", b.ID, len(b.Instances)+1)
	return Instance{Info: cloud.InstanceInfo{ID: id, State: cloud.StateRunning}}, p.trip("launch", b)
}

func (p *fakePorts) Pay(b *Batch) error {
	if err := p.trip("pay", b); err != nil {
		return err
	}
	_, err := p.credits.Pay(b.ID)
	return err
}

func (p *fakePorts) Archive(b *Batch) error {
	if err := p.trip("archive", b); err != nil {
		return err
	}
	tc50, _ := b.bi.TimeAtCompletion(0.5)
	p.oracle.Calibration.Record(b.EnvKey, tc50/0.5, b.bi.CompletedAt)
	return nil
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
	if n := p.oracle.Calibration.Count("env"); n != len(all) {
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
