package core

import (
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
)

// overWire is the view the Oracle module decides from: the Information
// module's JSON, decoded.
func overWire(t *testing.T, v BatchView) BatchView {
	t.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var out BatchView
	if err := json.Unmarshal(buf, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// sample is one AddSampleWorkers call of a scripted history.
type sample struct {
	at                                            float64
	completed, assigned, queued, running, workers int
}

func history(size int, samples []sample) *BatchInfo {
	bi := NewBatchInfo("b", "env", size, 0)
	for _, s := range samples {
		bi.AddSampleWorkers(s.at, s.completed, s.assigned, s.queued, s.running, s.workers)
	}
	return bi
}

// TestPlanTable is the one table of the provisioning decision. Its scripted
// rows pin each trigger and each sizing on a known history; its random rows
// run every paper strategy, and CapacityAware, over generated histories. Every
// row is decided twice — from BatchInfo.View, as the simulator does, and from
// that view's JSON round trip, as the Oracle module does behind /plan — and
// the two plans must be the same value.
func TestPlanTable(t *testing.T) {
	c9, a9, d := CompletionThreshold{0.9}, AssignmentThreshold{0.9}, ExecutionVariance{}
	steady := []sample{ // assignments at t, completions lag by ~100 s
		{100, 0, 40, 0, 40, 0}, {200, 40, 80, 0, 40, 0}, {300, 80, 100, 0, 20, 0}}
	tail := append(steady[:3:3], // the last fraction stalls: var grows past 2×
		sample{1200, 90, 100, 0, 10, 0}, sample{2400, 95, 100, 0, 5, 0})
	rows := []struct {
		name    string
		trigger Trigger
		sizing  Sizing
		size    int
		samples []sample
		credit  float64 // CPU·hours
		want    Plan    // Reason is checked by substring
	}{
		{"9C below the threshold", c9, Greedy{}, 100, []sample{{60, 89, 100, 0, 0, 0}}, 3,
			Plan{Reason: "trigger 9C not fired"}},
		{"9C at the threshold", c9, Greedy{}, 100, []sample{{60, 89, 100, 0, 0, 0}, {120, 90, 100, 0, 0, 0}}, 3,
			Plan{Start: true, Workers: 3, ReleaseIdle: true, Reason: "trigger 9C fired"}},
		{"9A fires on assignments alone", a9, Conservative{}, 100, []sample{{60, 10, 95, 0, 0, 0}}, 4,
			Plan{Start: true, Workers: 4, Reason: "trigger 9A fired"}},
		{"9A below the threshold", a9, Conservative{}, 100, []sample{{60, 10, 50, 0, 0, 0}}, 4,
			Plan{Reason: "trigger 9A not fired"}},
		{"D quiet in steady state", d, Conservative{}, 100, steady, 10,
			Plan{Reason: "trigger D not fired"}},
		{"D fires in the tail", d, Greedy{}, 100, tail, 2,
			Plan{Start: true, Workers: 2, ReleaseIdle: true, Reason: "trigger D fired"}},
		{"D never before half completion", d, Greedy{}, 100,
			[]sample{{100, 10, 100, 0, 90, 0}, {5000, 40, 100, 0, 60, 0}}, 2,
			Plan{Reason: "trigger D not fired"}},

		{"G starts the whole allowance", a9, Greedy{}, 1000, []sample{{60, 100, 950, 0, 0, 0}}, 305.5,
			Plan{Start: true, Workers: 305, ReleaseIdle: true, Reason: "trigger 9A fired"}},
		{"G starts one worker on a small allowance", a9, Greedy{}, 1000, []sample{{60, 100, 950, 0, 0, 0}}, 0.4,
			Plan{Start: true, Workers: 1, ReleaseIdle: true, Reason: "trigger 9A fired"}},
		{"G starts nothing without credits", a9, Greedy{}, 1000, []sample{{60, 100, 950, 0, 0, 0}}, 0,
			Plan{ReleaseIdle: true, Reason: "trigger 9A fired"}},
		// 90% at t=10000 ⇒ tr ≈ 1111 s ≈ 0.31 h; S = 10 ⇒ S/tr ≈ 32 > S ⇒ min ⇒ 10.
		{"C caps the fleet at the allowance", c9, Conservative{}, 1000, []sample{{10000, 900, 1000, 0, 100, 0}}, 10,
			Plan{Start: true, Workers: 10, Reason: "trigger 9C fired"}},
		// 50% at t=100000 ⇒ tr ≈ 27.8 h ⇒ S/tr ≈ 0.36 ⇒ the one-worker minimum.
		{"C starts one worker on a long remainder", CompletionThreshold{0.5}, Conservative{}, 100,
			[]sample{{100000, 50, 100, 0, 50, 0}}, 10,
			Plan{Start: true, Workers: 1, Reason: "trigger 5C fired"}},
		// 90% at t=100000 ⇒ tr ≈ 3.09 h ⇒ S/tr ≈ 3.2 ⇒ 3.
		{"C funds the fleet for the remainder", c9, Conservative{}, 1000, []sample{{100000, 900, 1000, 0, 100, 0}}, 10,
			Plan{Start: true, Workers: 3, Reason: "trigger 9C fired"}},
		{"C starts nothing without credits", c9, Conservative{}, 1000, []sample{{100000, 900, 1000, 0, 100, 0}}, 0,
			Plan{Reason: "trigger 9C fired"}},

		{"no more workers than tasks left", c9, Greedy{}, 100, []sample{{60, 95, 100, 0, 5, 0}}, 40,
			Plan{Start: true, Workers: 5, ReleaseIdle: true, Reason: "trigger 9C fired"}},
		{"a finished batch starts nothing", c9, Greedy{}, 100,
			[]sample{{60, 95, 100, 0, 5, 0}, {120, 100, 100, 0, 0, 0}}, 40,
			Plan{Reason: "batch complete"}},
		{"CA anticipates a capacity drop", DefaultCapacityAware(), Conservative{}, 100,
			[]sample{{60, 40, 100, 0, 60, 200}, {120, 76, 100, 0, 24, 60}}, 2,
			Plan{Start: true, Workers: 2, Reason: "trigger CA fired"}},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			o := NewOracle(Strategy{Trigger: r.trigger, Sizing: r.sizing, Deploy: Reschedule})
			v := history(r.size, r.samples).View()
			got := o.Plan(v, r.credit)
			if got.Start != r.want.Start || got.Workers != r.want.Workers ||
				got.ReleaseIdle != r.want.ReleaseIdle || !strings.Contains(got.Reason, r.want.Reason) {
				t.Errorf("plan = %+v, want %+v", got, r.want)
			}
			if wire := o.Plan(overWire(t, v), r.credit); wire != got {
				t.Errorf("over the wire the plan is %+v, in process %+v", wire, got)
			}
		})
	}

	strategies := append(AllStrategies(),
		Strategy{Trigger: DefaultCapacityAware(), Sizing: Conservative{}, Deploy: Reschedule})
	for _, st := range strategies {
		t.Run(st.Label(), func(t *testing.T) {
			o := NewOracle(st)
			rng := rand.New(rand.NewSource(1))
			started := 0
			for h := 0; h < 40; h++ {
				size := 1 + rng.Intn(300)
				bi := NewBatchInfo("b", "env", size, float64(rng.Intn(1000)))
				now, completed, assigned := bi.SubmittedAt, 0, 0
				for completed < size {
					now += 1 + 600*rng.Float64()
					// Assignment usually leads completion; a history where it lags
					// (a DG that reports late) must decide the same way too.
					assigned = min(size, assigned+rng.Intn(size/4+2))
					completed = min(size, completed+rng.Intn(size/6+2))
					if rng.Intn(4) > 0 {
						completed = min(completed, assigned)
					}
					bi.AddSampleWorkers(now, completed, assigned, 0, assigned-completed, rng.Intn(50))
					v := bi.View()
					if v.CompletedFraction >= 0.5 && v.MaxVarianceFirstHalf != bi.MaxExecutionVarianceUpTo(0.5) {
						t.Fatalf("first-half variance maximum %v, recomputed %v",
							v.MaxVarianceFirstHalf, bi.MaxExecutionVarianceUpTo(0.5))
					}
					credit := 20 * rng.Float64()
					got, wire := o.Plan(v, credit), o.Plan(overWire(t, v), credit)
					if got != wire {
						t.Fatalf("history %d at %v: in process %+v, over the wire %+v\nview %+v", h, now, got, wire, v)
					}
					if got.Start {
						started++
					}
				}
			}
			if started == 0 {
				t.Error("no history ever started cloud workers: the comparison is vacuous")
			}
		})
	}
}
