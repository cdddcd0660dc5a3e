package bot

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSmallClass(t *testing.T) {
	b := Small.Generate("b1", 1)
	if b.Size() != 1000 {
		t.Errorf("SMALL size = %d, want 1000", b.Size())
	}
	for _, task := range b.Tasks {
		if task.NOps != 3600000 {
			t.Fatalf("SMALL nops = %v, want 3600000", task.NOps)
		}
		if task.Arrival != 0 {
			t.Fatalf("SMALL arrival = %v, want 0", task.Arrival)
		}
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := b.WorkloadCPUHours(); math.Abs(got-1000*11000.0/3600) > 1e-9 {
		t.Errorf("workload = %v cpu·h", got)
	}
}

func TestBigClass(t *testing.T) {
	b := Big.Generate("b2", 1)
	if b.Size() != 10000 {
		t.Errorf("BIG size = %d, want 10000", b.Size())
	}
	if b.Tasks[0].NOps != 60000 {
		t.Errorf("BIG nops = %v", b.Tasks[0].NOps)
	}
}

func TestRandomClass(t *testing.T) {
	sizes := make([]float64, 0, 40)
	var nopsMin, nopsMax = math.MaxFloat64, 0.0
	for seed := uint64(0); seed < 40; seed++ {
		b := Random.Generate("r", seed)
		if err := b.Validate(); err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, float64(b.Size()))
		for _, task := range b.Tasks {
			if task.NOps < nopsMin {
				nopsMin = task.NOps
			}
			if task.NOps > nopsMax {
				nopsMax = task.NOps
			}
		}
	}
	var mean float64
	for _, s := range sizes {
		mean += s
	}
	mean /= float64(len(sizes))
	if mean < 850 || mean > 1150 {
		t.Errorf("RANDOM mean size = %v, want ~1000", mean)
	}
	if nopsMax == nopsMin {
		t.Error("RANDOM nops not heterogeneous")
	}
}

func TestRandomArrivalsBursty(t *testing.T) {
	b := Random.Generate("r", 7)
	// Weibull(91.98, 0.57) median ≈ 48 s < ε: at least half the gaps must
	// respect the BoT definition bound.
	within := 0
	gaps := 0
	var maxGap float64
	for i := 1; i < len(b.Tasks); i++ {
		g := b.Tasks[i].Arrival - b.Tasks[i-1].Arrival
		gaps++
		if g < Epsilon {
			within++
		}
		maxGap = max(maxGap, g)
	}
	if frac := float64(within) / float64(gaps); frac < 0.4 {
		t.Errorf("only %.0f%% of gaps under ε", frac*100)
	}
	if maxGap <= 0 {
		t.Error("RANDOM should have non-zero gaps")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Random.Generate("x", 5)
	b := Random.Generate("x", 5)
	if a.Size() != b.Size() {
		t.Fatal("sizes differ for same seed")
	}
	for i := range a.Tasks {
		if a.Tasks[i] != b.Tasks[i] {
			t.Fatal("tasks differ for same seed")
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	bad := []*BoT{
		{ID: "empty"},
		{ID: "nops", Tasks: []Task{{ID: 0, NOps: 0}}},
		{ID: "order", Tasks: []Task{{ID: 0, NOps: 1, Arrival: 10}, {ID: 1, NOps: 1, Arrival: 5}}},
	}
	for _, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("bot %s: corruption not detected", b.ID)
		}
	}
}

// Property: any generated BoT of any class validates, and arrivals are
// sorted with task IDs re-numbered in arrival order.
func TestGenerateInvariantsProperty(t *testing.T) {
	f := func(seed uint64, classIdx uint8) bool {
		c := Classes()[int(classIdx)%3].Scaled(0.05)
		b := c.Generate("p", seed)
		if b.Validate() != nil {
			return false
		}
		for i, task := range b.Tasks {
			if task.ID != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestScaled(t *testing.T) {
	s := Small.Scaled(0.1)
	if b := s.Generate("s", 1); b.Size() != 100 {
		t.Errorf("scaled SMALL size = %d, want 100", b.Size())
	}
	r := Random.Scaled(0.1)
	b := r.Generate("r", 1)
	if b.Size() < 20 || b.Size() > 300 {
		t.Errorf("scaled RANDOM size = %d, want ~100", b.Size())
	}
	// Scaling must not mutate the original.
	if Small.Generate("o", 1).Size() != 1000 {
		t.Error("Scaled mutated the class")
	}
	tiny := Small.Scaled(0.00001)
	if b := tiny.Generate("t", 1); b.Size() < 1 {
		t.Error("scaling below 1 task")
	}
}

func TestClassByName(t *testing.T) {
	for _, name := range []string{"SMALL", "BIG", "RANDOM"} {
		if c, ok := ClassByName(name); !ok || c.Name != name {
			t.Errorf("lookup %s failed", name)
		}
	}
	if _, ok := ClassByName("HUGE"); ok {
		t.Error("bogus class found")
	}
}
