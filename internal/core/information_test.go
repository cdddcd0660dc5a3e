package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBatchInfoMilestones(t *testing.T) {
	bi := NewBatchInfo("b", "env", 100, 1000)
	bi.AddSample(1060, 0, 50, 50, 0)  // t=60: 50% assigned
	bi.AddSample(1120, 30, 100, 0, 0) // t=120: 30% completed, all assigned
	bi.AddSample(1180, 90, 100, 0, 0)
	bi.AddSample(1240, 100, 100, 0, 0)

	if got, ok := bi.tc(30); !ok || got != 120 {
		t.Errorf("tc(0.3) = %v,%v want 120", got, ok)
	}
	if got, ok := bi.tc(90); !ok || got != 180 {
		t.Errorf("tc(0.9) = %v,%v want 180", got, ok)
	}
	if got, ok := bi.ta(50); !ok || got != 60 {
		t.Errorf("ta(0.5) = %v,%v want 60", got, ok)
	}
	if got, ok := bi.ta(90); !ok || got != 120 {
		t.Errorf("ta(0.9) = %v,%v want 120", got, ok)
	}
	if v := bi.TickView(); !v.Done() || v.CompletedAt != 240 {
		t.Errorf("completion: done=%v at=%v", v.Done(), v.CompletedAt)
	}
	if v := bi.TickView(); v.CompletedFraction() != 1 || v.AssignedFraction() != 1 {
		t.Error("fractions wrong at completion")
	}
	// Intermediate milestone (31%) first reached at the same sample as 90%.
	if got, ok := bi.tc(31); !ok || got != 180 {
		t.Errorf("tc(0.31) = %v,%v want 180", got, ok)
	}
	// Unreached milestone before completion.
	bi2 := NewBatchInfo("b2", "env", 100, 0)
	bi2.AddSample(60, 10, 20, 0, 0)
	if _, ok := bi2.tc(50); ok {
		t.Error("tc(0.5) should be unknown at 10% completion")
	}
}

func TestExecutionVarianceSeries(t *testing.T) {
	bi := NewBatchInfo("b", "env", 10, 0)
	bi.AddSample(10, 0, 10, 0, 10) // everything assigned at t=10
	bi.AddSample(50, 5, 10, 0, 5)  // 50% completed at t=50
	bi.AddSample(500, 9, 10, 0, 1) // stragglers
	v, ok := bi.variance(50)
	if !ok || v != 40 {
		t.Errorf("var(0.5) = %v,%v want 40", v, ok)
	}
	v, ok = bi.variance(90)
	if !ok || v != 490 {
		t.Errorf("var(0.9) = %v,%v want 490", v, ok)
	}
	if m := bi.maxVarianceUpTo(50); m != 40 {
		t.Errorf("max var first half = %v, want 40", m)
	}
	if _, ok := bi.variance(95); ok {
		t.Error("var(0.95) should be unknown")
	}
}

// Property: milestone times are monotone in x and never exceed the last
// sample time.
func TestMilestoneMonotonicityProperty(t *testing.T) {
	f := func(counts []uint8) bool {
		bi := NewBatchInfo("b", "env", 100, 0)
		tt := 0.0
		completed := 0
		for _, c := range counts {
			tt += 60
			completed += int(c) % 7
			if completed > 100 {
				completed = 100
			}
			bi.AddSample(tt, completed, 100, 0, 0)
		}
		prev := 0.0
		for i := 1; i <= 100; i++ {
			v, ok := bi.tc(i)
			if !ok {
				break
			}
			if v < prev || v > tt {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestInformationTracking(t *testing.T) {
	in := NewInformation()
	bi, err := in.Track("b1", "env", 10, 0)
	if err != nil || bi == nil {
		t.Fatal(err)
	}
	if _, err := in.Track("b1", "env", 10, 0); err == nil {
		t.Fatal("duplicate track accepted")
	}
	if v, ok := in.View("b1"); !ok || v.BatchID != "b1" || v.Size != 10 {
		t.Fatalf("view = %+v, %v", v, ok)
	}
	if _, ok := in.View("zz"); ok {
		t.Fatal("phantom batch")
	}
	in.Track("a0", "env", 5, 0)
	ids := in.BatchIDs()
	if len(ids) != 2 || ids[0] != "a0" || ids[1] != "b1" {
		t.Fatalf("ids = %v", ids)
	}
}

func TestLastOnEmpty(t *testing.T) {
	bi := NewBatchInfo("b", "env", 10, 0)
	if s := bi.Last(); s.Completed != 0 || s.T != 0 {
		t.Fatalf("empty last = %+v", s)
	}
	if bi.CompletedFraction() != 0 {
		t.Fatal("fraction on empty should be 0")
	}
}

// rewalkFill is the milestone fill add used before it kept high-water marks:
// every sample rewalks the cache from index 1.
func rewalkFill(cache *[milestones + 1]float64, size, count int, t float64) {
	upto := min(count*milestones/size, milestones)
	for i := 1; i <= upto; i++ {
		if cache[i] < 0 {
			cache[i] = t
		}
	}
}

// TestMilestoneFillMatchesRewalk holds add's high-water-mark fill to the
// rewalk from index 1, both caches after every sample, on random sample
// sequences: counts monotone or not (falling back, past the size, negative),
// times monotone or not (negative ones included, which leave what they wrote
// unfilled).
func TestMilestoneFillMatchesRewalk(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		size := 1 + rng.Intn(300)
		monotone := trial%2 == 0
		bi := NewBatchInfo("b", "e", size, 0)
		ref := NewBatchInfo("b", "e", size, 0)
		completed, assigned, now := 0, 0, 0.0
		for k := 0; k < 1+rng.Intn(60); k++ {
			if monotone {
				now += float64(rng.Intn(120))
				assigned += rng.Intn(size/4 + 2)
				completed = min(assigned, completed+rng.Intn(size/4+2))
			} else {
				now = float64(rng.Intn(2000) - 200)
				assigned = rng.Intn(size+size/2+2) - size/8
				completed = rng.Intn(size+size/2+2) - size/8
			}
			bi.AddSample(now, completed, assigned, 0, 0)
			rewalkFill(&ref.tcAt, size, completed, now)
			rewalkFill(&ref.taAt, size, assigned, now)
			if bi.tcAt != ref.tcAt || bi.taAt != ref.taAt {
				t.Fatalf("trial %d (size %d, monotone %v), sample %d (t=%v completed=%d assigned=%d):\n tc %v\n want %v\n ta %v\n want %v",
					trial, size, monotone, k, now, completed, assigned, bi.tcAt, ref.tcAt, bi.taAt, ref.taAt)
			}
		}
	}
}

// TestMilestoneReadWhereFilled: a tick reads the milestone add filled, the
// percent of the counts, not the percent of a fraction. float64(29)/100*100
// truncates to 28, so reading var(0.29) through the fraction took milestone
// 28 in place of 29, both at the current completion and in the first-half
// maximum.
func TestMilestoneReadWhereFilled(t *testing.T) {
	bi := NewBatchInfo("b", "env", 100, 0)
	bi.AddSample(50, 0, 29, 71, 29)  // ta(29%) = 50
	bi.AddSample(100, 28, 29, 71, 1) // tc(28%) = 100
	bi.AddSample(300, 29, 29, 71, 0) // tc(29%) = 300
	if v := bi.TickView(); v.ExecVariance != 250 {
		t.Errorf("var at 29 of 100 = %v, want tc(29%%) − ta(29%%) = 250", v.ExecVariance)
	}
	bi.AddSample(400, 50, 60, 40, 10) // tc and ta reach 50% together: var(30..50%) = 0
	if v := bi.TickView(); v.MaxVarianceFirstHalf != 250 {
		t.Errorf("max var over the first half = %v, want var(29%%) = 250", v.MaxVarianceFirstHalf)
	}
}
