package core

import (
	"testing"
	"testing/quick"
)

func TestBatchInfoMilestones(t *testing.T) {
	bi := NewBatchInfo("b", "env", 100, 1000)
	bi.AddSample(1060, 0, 50, 50, 0)  // t=60: 50% assigned
	bi.AddSample(1120, 30, 100, 0, 0) // t=120: 30% completed, all assigned
	bi.AddSample(1180, 90, 100, 0, 0)
	bi.AddSample(1240, 100, 100, 0, 0)

	if got, ok := bi.TimeAtCompletion(0.3); !ok || got != 120 {
		t.Errorf("tc(0.3) = %v,%v want 120", got, ok)
	}
	if got, ok := bi.TimeAtCompletion(0.9); !ok || got != 180 {
		t.Errorf("tc(0.9) = %v,%v want 180", got, ok)
	}
	if got, ok := bi.TimeAtAssignment(0.5); !ok || got != 60 {
		t.Errorf("ta(0.5) = %v,%v want 60", got, ok)
	}
	if got, ok := bi.TimeAtAssignment(0.9); !ok || got != 120 {
		t.Errorf("ta(0.9) = %v,%v want 120", got, ok)
	}
	if !bi.Done() || bi.CompletedAt != 240 {
		t.Errorf("completion: done=%v at=%v", bi.Done(), bi.CompletedAt)
	}
	if bi.CompletedFraction() != 1 || bi.AssignedFraction() != 1 {
		t.Error("fractions wrong at completion")
	}
	// Intermediate milestone (31%) first reached at the same sample as 90%.
	if got, ok := bi.TimeAtCompletion(0.31); !ok || got != 180 {
		t.Errorf("tc(0.31) = %v,%v want 180", got, ok)
	}
	// Unreached milestone before completion.
	bi2 := NewBatchInfo("b2", "env", 100, 0)
	bi2.AddSample(60, 10, 20, 0, 0)
	if _, ok := bi2.TimeAtCompletion(0.5); ok {
		t.Error("tc(0.5) should be unknown at 10% completion")
	}
}

func TestExecutionVarianceSeries(t *testing.T) {
	bi := NewBatchInfo("b", "env", 10, 0)
	bi.AddSample(10, 0, 10, 0, 10) // everything assigned at t=10
	bi.AddSample(50, 5, 10, 0, 5)  // 50% completed at t=50
	bi.AddSample(500, 9, 10, 0, 1) // stragglers
	v, ok := bi.ExecutionVariance(0.5)
	if !ok || v != 40 {
		t.Errorf("var(0.5) = %v,%v want 40", v, ok)
	}
	v, ok = bi.ExecutionVariance(0.9)
	if !ok || v != 490 {
		t.Errorf("var(0.9) = %v,%v want 490", v, ok)
	}
	if m := bi.MaxExecutionVarianceUpTo(0.5); m != 40 {
		t.Errorf("max var first half = %v, want 40", m)
	}
	if _, ok := bi.ExecutionVariance(0.95); ok {
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
			v, ok := bi.TimeAtCompletion(float64(i) / 100)
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
