package metrics

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestComputeTailNoTail(t *testing.T) {
	// Perfectly linear completion: 10 tasks at 10,20,...,100.
	times := make([]float64, 10)
	for i := range times {
		times[i] = float64(i+1) * 10
	}
	st, ok := ComputeTail(times)
	if !ok {
		t.Fatal("not ok")
	}
	if st.TC90 != 90 {
		t.Fatalf("tc90 = %v, want 90", st.TC90)
	}
	if st.IdealTime != 100 {
		t.Fatalf("ideal = %v, want 100", st.IdealTime)
	}
	if st.Slowdown != 1 {
		t.Fatalf("slowdown = %v, want 1 (no tail)", st.Slowdown)
	}
	if st.TailTasks != 0 || st.TailTimeFraction != 0 {
		t.Fatalf("phantom tail: %+v", st)
	}
}

func TestComputeTailWithTail(t *testing.T) {
	// 9 tasks by t=90, the last straggles to t=400.
	times := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 400}
	st, _ := ComputeTail(times)
	if st.TC90 != 90 || st.IdealTime != 100 {
		t.Fatalf("tc90=%v ideal=%v", st.TC90, st.IdealTime)
	}
	if st.Slowdown != 4 {
		t.Fatalf("slowdown = %v, want 4", st.Slowdown)
	}
	if st.TailTasks != 1 {
		t.Fatalf("tail tasks = %d, want 1", st.TailTasks)
	}
	if math.Abs(st.TailTimeFraction-0.75) > 1e-9 {
		t.Fatalf("tail time fraction = %v, want 0.75", st.TailTimeFraction)
	}
	if st.TailTaskFraction != 0.1 {
		t.Fatalf("tail task fraction = %v, want 0.1", st.TailTaskFraction)
	}
}

func TestComputeTailUnsortedInput(t *testing.T) {
	a, _ := ComputeTail([]float64{400, 90, 10, 50, 30, 70, 20, 80, 60, 40})
	b, _ := ComputeTail([]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 400})
	if a != b {
		t.Fatal("order sensitivity in ComputeTail")
	}
}

func TestComputeTailDegenerate(t *testing.T) {
	if _, ok := ComputeTail(nil); ok {
		t.Fatal("empty accepted")
	}
	if _, ok := ComputeTail([]float64{5}); ok {
		t.Fatal("singleton accepted")
	}
}

// Property: slowdown ≥ 0.9 always (actual ≥ tc90 = 0.9·ideal), and tail
// fractions are in [0,1].
func TestTailBoundsProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) < 2 {
			return true
		}
		times := make([]float64, len(raw))
		for i, v := range raw {
			times[i] = float64(v%1000000) + 1
		}
		st, ok := ComputeTail(times)
		if !ok {
			return false
		}
		return st.Slowdown >= 0.9-1e-12 &&
			st.TailTaskFraction >= 0 && st.TailTaskFraction <= 1 &&
			st.TailTimeFraction >= 0 && st.TailTimeFraction < 1 &&
			st.IdealTime > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTailRemovalEfficiency(t *testing.T) {
	// Baseline 400 vs ideal 100; SpeQuloS brings it to 100 → full removal.
	if tre, ok := TailRemovalEfficiency(100, 400, 100); !ok || tre != 1 {
		t.Fatalf("tre = %v,%v want 1", tre, ok)
	}
	// Halving the tail.
	if tre, _ := TailRemovalEfficiency(250, 400, 100); tre != 0.5 {
		t.Fatalf("tre = %v, want 0.5", tre)
	}
	// No improvement.
	if tre, _ := TailRemovalEfficiency(400, 400, 100); tre != 0 {
		t.Fatalf("tre = %v, want 0", tre)
	}
	// Worse than baseline clamps to 0.
	if tre, _ := TailRemovalEfficiency(500, 400, 100); tre != 0 {
		t.Fatalf("tre = %v, want 0 (clamped)", tre)
	}
	// Faster than ideal clamps to 1.
	if tre, _ := TailRemovalEfficiency(80, 400, 100); tre != 1 {
		t.Fatalf("tre = %v, want 1 (clamped)", tre)
	}
	// Undefined when baseline has no tail.
	if _, ok := TailRemovalEfficiency(100, 100, 100); ok {
		t.Fatal("tailless baseline should be undefined")
	}
}

func TestNormalizeByMean(t *testing.T) {
	out := NormalizeByMean([]float64{1, 2, 3})
	if len(out) != 3 || out[1] != 1 {
		t.Fatalf("normalized = %v", out)
	}
	var sum float64
	for _, v := range out {
		sum += v
	}
	if math.Abs(sum/3-1) > 1e-12 {
		t.Fatalf("normalized mean = %v, want 1", sum/3)
	}
	if NormalizeByMean(nil) != nil {
		t.Fatal("empty input should return nil")
	}
	if NormalizeByMean([]float64{0, 0}) != nil {
		t.Fatal("zero mean should return nil")
	}
}

func TestCompletionSeries(t *testing.T) {
	pts := CompletionSeries([]float64{30, 10, 20})
	if len(pts) != 3 {
		t.Fatal("length wrong")
	}
	if pts[0].T != 10 || pts[0].Ratio != 1.0/3 {
		t.Fatalf("first point %+v", pts[0])
	}
	if pts[2].T != 30 || pts[2].Ratio != 1 {
		t.Fatalf("last point %+v", pts[2])
	}
	if !sort.SliceIsSorted(pts, func(i, j int) bool { return pts[i].T < pts[j].T }) {
		t.Fatal("series unsorted")
	}
	if CompletionSeries(nil) != nil {
		t.Fatal("empty series should be nil")
	}
}
