package core

import (
	"encoding/json"
	"math/rand"
	"testing"
)

// overWire is the view the Oracle module decides from: the Information
// module's JSON of it (POST /statuses), decoded.
func overWire(t testing.TB, v TickView) TickView {
	t.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var out TickView
	if err := json.Unmarshal(buf, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// sample is one observation of a scripted history, at seconds after submission.
type sample struct {
	at                                            float64
	completed, assigned, queued, running, workers int
}

func history(size int, samples []sample) *BatchInfo {
	bi := NewBatchInfo("b", "env", size, 0)
	for _, s := range samples {
		bi.add(Sample{T: s.at, Completed: s.completed, Assigned: s.assigned,
			Queued: s.queued, Running: s.running, Workers: s.workers})
	}
	return bi
}

// TestPlanTable is the one table of the provisioning decision. Its scripted
// rows pin each trigger and each sizing on a known history; its random rows
// run every paper strategy, and CapacityAware, over generated histories. Every
// row is decided twice — from BatchInfo.TickView, as the simulator does, and
// from that view's JSON round trip, as the Oracle module does behind /plans —
// and the two plans must be the same value.
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
		want    Plan
	}{
		{"9C below the threshold", c9, Greedy{}, 100, []sample{{60, 89, 100, 0, 0, 0}}, 3,
			Plan{Wait: Wait{Completed: 90}}},
		{"9C at the threshold", c9, Greedy{}, 100, []sample{{60, 89, 100, 0, 0, 0}, {120, 90, 100, 0, 0, 0}}, 3,
			Plan{Start: true, Workers: 3, ReleaseIdle: true, Reason: "trigger 9C fired"}},
		{"9A fires on assignments alone", a9, Conservative{}, 100, []sample{{60, 10, 95, 0, 0, 0}}, 4,
			Plan{Start: true, Workers: 4, Reason: "trigger 9A fired"}},
		{"9A below the threshold", a9, Conservative{}, 100, []sample{{60, 10, 50, 0, 0, 0}}, 4,
			Plan{Wait: Wait{Assigned: 90}}},
		// D's Wait is half the batch, which it has passed: asked every tick.
		{"D quiet in steady state", d, Conservative{}, 100, steady, 10,
			Plan{Wait: Wait{Completed: 50}}},
		{"D fires in the tail", d, Greedy{}, 100, tail, 2,
			Plan{Start: true, Workers: 2, ReleaseIdle: true, Reason: "trigger D fired"}},
		{"D never before half completion", d, Greedy{}, 100,
			[]sample{{100, 10, 100, 0, 90, 0}, {5000, 40, 100, 0, 60, 0}}, 2,
			Plan{Wait: Wait{Completed: 50}}},

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
			Plan{}},
		{"CA waits for the lower of its two fractions", DefaultCapacityAware(), Conservative{}, 100,
			[]sample{{60, 69, 100, 0, 31, 10}}, 2,
			Plan{Wait: Wait{Completed: 70}}},
		{"CA anticipates a capacity drop", DefaultCapacityAware(), Conservative{}, 100,
			[]sample{{60, 40, 100, 0, 60, 200}, {120, 76, 100, 0, 24, 60}}, 2,
			Plan{Start: true, Workers: 2, Reason: "trigger CA fired"}},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			o := NewOracle(Strategy{Trigger: r.trigger, Sizing: r.sizing, Deploy: Reschedule})
			v := history(r.size, r.samples).TickView()
			got := o.Plan(v, r.credit)
			if got != r.want {
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
					bi.add(Sample{T: now - bi.SubmittedAt, Completed: completed, Assigned: assigned, Running: assigned - completed, Workers: rng.Intn(50)})
					v := bi.TickView()
					if v.CompletedFraction() >= 0.5 && v.MaxVarianceFirstHalf != bi.maxVarianceUpTo(50) {
						t.Fatalf("first-half variance maximum %v, recomputed %v",
							v.MaxVarianceFirstHalf, bi.maxVarianceUpTo(50))
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

// tickSamples encodes samples as FuzzTickView reads them: per sample, the
// time in quarter seconds (int16, so negative and non-monotone times occur),
// the completed, assigned and worker counts, and the credit in CPU·hours.
func tickSamples(rows ...[5]int) []byte {
	var out []byte
	for _, r := range rows {
		t := uint16(int16(r[0]))
		out = append(out, byte(t>>8), byte(t), byte(r[1]), byte(r[2]), byte(r[3]), byte(r[4]))
	}
	return out
}

// tickSample decodes the sample at the head of a tickSamples script.
func tickSample(row []byte) Sample {
	return Sample{T: float64(int16(uint16(row[0])<<8|uint16(row[1]))) / 4,
		Completed: int(row[2]), Assigned: int(row[3]), Workers: int(row[4])}
}

// FuzzTickView feeds arbitrary sample sequences into a BatchInfo and, after
// each, checks the tick view two ways: every paper strategy and CapacityAware
// plan the same from the view and from its JSON round trip (what the Oracle
// module reads behind /plans), and the archived execution of the view and of
// its round trip is (tc(0.5)/0.5, CompletedAt) read directly off the history.
func FuzzTickView(f *testing.F) {
	f.Add(uint8(100), tickSamples([5]int{400, 10, 40, 8, 3}, [5]int{800, 50, 90, 8, 3}, [5]int{1600, 95, 100, 2, 3}, [5]int{2000, 100, 100, 0, 3}))
	f.Add(uint8(0), tickSamples([5]int{400, 10, 40, 8, 3}, [5]int{800, 0, 0, 0, 0}))
	f.Add(uint8(20), tickSamples([5]int{-400, 30, 5, 9, 1}, [5]int{-800, 10, 255, 1, 0}, [5]int{100, 255, 255, 4, 9}, [5]int{50, 1, 1, 0, 2}))
	strategies := append(AllStrategies(),
		Strategy{Trigger: DefaultCapacityAware(), Sizing: Conservative{}, Deploy: Reschedule})
	oracles := make([]*Oracle, len(strategies))
	for i, st := range strategies {
		oracles[i] = NewOracle(st)
	}
	f.Fuzz(func(t *testing.T, size uint8, script []byte) {
		bi := NewBatchInfo("b", "env", int(size), 0)
		for ; len(script) >= 6; script = script[6:] {
			bi.add(tickSample(script))
			v := bi.TickView()
			wire := overWire(t, v)
			if c := v.CompletedFraction(); c != bi.CompletedFraction() {
				t.Fatalf("view completed fraction %v, history %v", c, bi.CompletedFraction())
			}
			credit := float64(script[5]) / 4
			for _, o := range oracles {
				if got, over := o.Plan(v, credit), o.Plan(wire, credit); got != over {
					t.Fatalf("%s: in process %+v, over the wire %+v\nview %+v", o.Strategy.Label(), got, over, v)
				}
			}
			tc, half := bi.tc(50)
			want := bi.CompletedAt >= 0 && half && tc > 0
			for _, view := range []TickView{v, wire} {
				base, actual, ok := view.Execution()
				if ok != want || ok && (base != tc/0.5 || actual != bi.CompletedAt) {
					t.Fatalf("archived (%v, %v, %v), want (%v, %v, %v)\nview %+v", base, actual, ok, tc/0.5, bi.CompletedAt, want, view)
				}
			}
		}
	})
}
