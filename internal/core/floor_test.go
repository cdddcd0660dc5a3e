package core

import (
	"math"
	"testing"
)

// waitOn is the Wait of a plan for a batch of the given size that has
// started and done nothing yet.
func waitOn(tr Trigger, size int) Wait {
	o := NewOracle(Strategy{Trigger: tr, Sizing: Conservative{}, Deploy: Reschedule})
	v := TickView{Size: size, ExecVariance: -1, MaxVarianceFirstHalf: -1, TC50: -1, CompletedAt: -1}
	return o.Plan(v, 10).Wait
}

// TestTriggerFloorCounts pins the Wait each trigger's floor gives, count for
// count, where the fraction times the size is not what float64 says
// (0.29×100 is 28.999…, 0.9×7 is 6.3), on sizes 0, 1 and primes; and at the
// boundary it pins that one task short of the Wait does not fire and, for a
// threshold, that the Wait itself does.
func TestTriggerFloorCounts(t *testing.T) {
	rows := []struct {
		name    string
		trigger Trigger
		size    int
		want    Wait
	}{
		{"9C on 100", CompletionThreshold{0.9}, 100, Wait{Completed: 90}},
		{"9C on 7", CompletionThreshold{0.9}, 7, Wait{Completed: 7}},
		{"9C on 1", CompletionThreshold{0.9}, 1, Wait{Completed: 1}},
		{"9C on 0", CompletionThreshold{0.9}, 0, Wait{}},
		{"9C at 0.29 on 100", CompletionThreshold{0.29}, 100, Wait{Completed: 29}},
		{"9C at 0.29 on 31", CompletionThreshold{0.29}, 31, Wait{Completed: 9}},
		{"9C at 1 on 97", CompletionThreshold{1}, 97, Wait{Completed: 97}},
		{"9C at 0", CompletionThreshold{0}, 100, Wait{}},
		{"9A on 7", AssignmentThreshold{0.9}, 7, Wait{Assigned: 7}},
		{"9A on 101", AssignmentThreshold{0.9}, 101, Wait{Assigned: 91}},
		{"9A at 0.29 on 100", AssignmentThreshold{0.29}, 100, Wait{Assigned: 29}},
		{"D on 13", ExecutionVariance{}, 13, Wait{Completed: 7}},
		{"D on 1", ExecutionVariance{}, 1, Wait{Completed: 1}},
		{"D on 0", ExecutionVariance{}, 0, Wait{}},
		{"CA on 100", DefaultCapacityAware(), 100, Wait{Completed: 70}},
		{"CA whose fallback is lower", CapacityAware{MinCompleted: 0.7, DropFraction: 0.5, Fallback: 0.6}, 100, Wait{Completed: 60}},
		{"CA without fallback", CapacityAware{MinCompleted: 0.7, DropFraction: 0.5}, 7, Wait{Completed: 5}},
		{"CA from the start", CapacityAware{DropFraction: 0.5, Fallback: 0.9}, 100, Wait{}},
		{"CA at NaN", CapacityAware{MinCompleted: math.NaN(), DropFraction: 0.5, Fallback: 0.9}, 100, Wait{}},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			w := waitOn(r.trigger, r.size)
			if w != r.want {
				t.Fatalf("wait %+v, want %+v", w, r.want)
			}
			at := func(completed, assigned int) TickView {
				return TickView{Size: r.size, Completed: completed, Assigned: assigned,
					ExecVariance: 1e9, MaxVarianceFirstHalf: 0, TC50: -1, CompletedAt: -1}
			}
			if w.Completed > 0 && r.trigger.ShouldStart(at(w.Completed-1, r.size)) {
				t.Errorf("fires one completion short of the wait")
			}
			if w.Assigned > 0 && r.trigger.ShouldStart(at(r.size, w.Assigned-1)) {
				t.Errorf("fires one assignment short of the wait")
			}
			switch r.trigger.(type) {
			case CompletionThreshold, AssignmentThreshold:
				if (w != Wait{}) && !r.trigger.ShouldStart(at(w.Completed, w.Assigned)) {
					t.Errorf("a threshold does not fire at its wait")
				}
			}
		})
	}
}

// FuzzTriggerFloor is the soundness of Plan.Wait: a plan that waits is taken
// on one view of a batch, and any later view of the same batch whose counts
// are below that Wait, whatever else it reads, must not make the trigger
// fire nor the plan start. All four triggers run, the thresholds at the
// fuzzed fraction and CapacityAware with fuzzed parameters, and the Wait must
// be the smallest count whose fraction of the size passes the floor.
func FuzzTriggerFloor(f *testing.F) {
	f.Add(uint16(100), 0.29, 0.7, 0.5, 0.9, uint16(10), uint16(20), uint16(28), uint16(100), uint16(3), uint16(9), 5.0, 1.0)
	f.Add(uint16(7), 0.9, 0.7, 0.5, 0.9, uint16(3), uint16(7), uint16(6), uint16(6), uint16(1), uint16(4), 2.0, 0.5)
	f.Add(uint16(1), 0.5, 0.0, 0.0, 0.0, uint16(0), uint16(0), uint16(0), uint16(1), uint16(0), uint16(0), -1.0, -1.0)
	f.Add(uint16(0), 0.9, 0.3, 0.2, 0.1, uint16(0), uint16(0), uint16(0), uint16(0), uint16(0), uint16(0), 0.0, 0.0)
	f.Add(uint16(97), 1.0, 0.7, 0.5, 0.6, uint16(50), uint16(96), uint16(59), uint16(96), uint16(2), uint16(10), 1e9, 0.0)
	f.Fuzz(func(t *testing.T, size uint16, frac, minC, drop, fallback float64,
		c1, a1, c2, a2, workers, peak uint16, execVar, maxVar float64) {
		n := int(size % 1000)
		count := func(x uint16) int { return int(x) % (n + 1) }
		view := func(c, a int) TickView {
			return TickView{Size: n, Completed: c, Assigned: a, Workers: int(workers), PeakWorkers: int(peak),
				ExecVariance: execVar, MaxVarianceFirstHalf: maxVar, TC50: -1, CompletedAt: -1}
		}
		first, later := view(count(c1), count(a1)), view(count(c2), count(a2))
		triggers := []Trigger{CompletionThreshold{frac}, AssignmentThreshold{frac}, ExecutionVariance{},
			CapacityAware{MinCompleted: minC, DropFraction: drop, Fallback: fallback}}
		for _, tr := range triggers {
			o := NewOracle(Strategy{Trigger: tr, Sizing: Greedy{}, Deploy: Reschedule})
			p := o.Plan(first, 10)
			if p.Start || p.Reason != "" {
				continue // fired: no Wait to check
			}
			w := p.Wait
			fc, fa := tr.Floor()
			for _, e := range []struct {
				frac float64
				k    int
			}{{fc, w.Completed}, {fa, w.Assigned}} {
				if e.k == 0 || e.k == math.MaxInt {
					if e.k == 0 && n > 0 && e.frac > 0 {
						t.Fatalf("%s: floor %v on %d gave no wait", tr.Code(), e.frac, n)
					}
					continue
				}
				if float64(e.k)/float64(n) < e.frac || float64(e.k-1)/float64(n) >= e.frac {
					t.Fatalf("%s: wait %d is not the least count reaching %v of %d", tr.Code(), e.k, e.frac, n)
				}
			}
			if w.below(later.Completed, later.Assigned) {
				if tr.ShouldStart(later) || o.Plan(later, 10).Start {
					t.Fatalf("%s fires at %+v, below the wait %+v", tr.Code(), later, w)
				}
			}
		}
	})
}
