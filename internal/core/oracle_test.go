package core

import (
	"math"
	"testing"
)

func TestStrategyLabels(t *testing.T) {
	if got := DefaultStrategy().Label(); got != "9C-C-R" {
		t.Fatalf("default = %s", got)
	}
	all := AllStrategies()
	if len(all) != 18 {
		t.Fatalf("combos = %d, want 18", len(all))
	}
	seen := map[string]bool{}
	for _, s := range all {
		if seen[s.Label()] {
			t.Fatalf("duplicate label %s", s.Label())
		}
		seen[s.Label()] = true
	}
	for _, label := range []string{"9C-G-F", "9A-C-D", "D-G-R"} {
		s, err := StrategyByLabel(label)
		if err != nil || s.Label() != label {
			t.Fatalf("roundtrip %s failed: %v", label, err)
		}
	}
	if _, err := StrategyByLabel("XX-Y-Z"); err == nil {
		t.Fatal("bogus label accepted")
	}
	if Flat.String() == "" || Reschedule.String() == "" || CloudDuplication.String() == "" {
		t.Fatal("deployment names empty")
	}
	if Deployment(99).Code() != "?" {
		t.Fatal("unknown deployment code")
	}
}

func TestCalibrationFit(t *testing.T) {
	c := NewCalibration()
	if f := c.Fit("env"); f != (CalibrationFit{Alpha: 1}) || f.SuccessRate() != 0 {
		t.Fatalf("fit with no history = %+v, rate %v; want α 1, nothing archived", f, f.SuccessRate())
	}
	// Actual completion always 1.5× the constant-rate estimate.
	for i := 0; i < 20; i++ {
		base := 1000.0 + float64(i)*100
		c.Record("env", base, 1.5*base)
	}
	f := c.Fit("env")
	if math.Abs(f.Alpha-1.5) > 1e-9 {
		t.Fatalf("alpha = %v, want 1.5", f.Alpha)
	}
	if f.Hits != 20 || f.Count != 20 || f.SuccessRate() != 1 {
		t.Fatalf("fit = %+v, rate %v; want 20 hits of 20 (perfect fit)", f, f.SuccessRate())
	}
	// Unrelated environment unaffected.
	if c.Fit("other") != (CalibrationFit{Alpha: 1}) {
		t.Fatal("environment isolation broken")
	}
}

func TestCalibrationSuccessRateWithNoise(t *testing.T) {
	c := NewCalibration()
	// Half the executions double (way outside ±20%), half are exact.
	for i := 0; i < 10; i++ {
		c.Record("env", 1000, 1000)
		c.Record("env", 1000, 2000)
	}
	want := CalibrationFit{Alpha: 1, Hits: 10, Count: 20}
	if f := c.Fit("env"); f != want || f.SuccessRate() != 0.5 {
		t.Fatalf("fit = %+v, rate %v; want %+v, rate 0.5", f, f.SuccessRate(), want)
	}
	// Invalid pairs ignored.
	c.Record("env", 0, 100)
	c.Record("env", 100, -1)
	if f := c.Fit("env"); f != want {
		t.Fatalf("invalid pairs recorded: %+v", f)
	}
}

// A prediction α·base is a hit when the actual completion time lies within
// ±PredictionTolerance of it, both bounds included. Each case archives four
// exact executions, which hold α at 1, and the probe (base 100, actual).
func TestPredictionSuccess(t *testing.T) {
	for _, tc := range []struct {
		actual float64
		hit    bool
	}{{100, true}, {119, true}, {81, true}, {120, true}, {80, true}, {121, false}, {79, false}} {
		c := NewCalibration()
		for i := 0; i < 4; i++ {
			c.Record("env", 100, 100)
		}
		c.Record("env", 100, tc.actual)
		want := CalibrationFit{Alpha: 1, Hits: 4, Count: 5}
		if tc.hit {
			want.Hits = 5
		}
		if got := c.Fit("env"); got != want {
			t.Errorf("actual %v: fit = %+v, want %+v", tc.actual, got, want)
		}
	}
	// A pair with no positive prediction is no execution: nothing to score.
	c := NewCalibration()
	c.Record("env", 0, 10)
	if got := c.Fit("env"); got != (CalibrationFit{Alpha: 1}) {
		t.Errorf("a zero base was archived: %+v", got)
	}
}

func TestOraclePredict(t *testing.T) {
	o := NewOracle(DefaultStrategy())
	bi := NewBatchInfo("b", "env", 100, 1000)
	bi.AddSample(1500, 50, 100, 0, 50) // 50% at elapsed 500
	p, err := o.Predict(bi, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if p.PredictedTime != 1000 { // α=1 · 500/0.5
		t.Fatalf("prediction = %v, want 1000", p.PredictedTime)
	}
	if p.CompletedFraction != 0.5 || p.Alpha != 1 {
		t.Fatalf("prediction meta: %+v", p)
	}
	if pv, err := o.PredictView(bi.View()); err != nil || pv != p {
		t.Fatalf("prediction from the view = %+v, %v; from the history %+v", pv, err, p)
	}
	// With calibration α=2.
	o.Calibration.Record("env", 1000, 2000)
	p2, _ := o.Predict(bi, 1500)
	if p2.PredictedTime != 2000 {
		t.Fatalf("calibrated prediction = %v, want 2000", p2.PredictedTime)
	}
	// No completions yet: error.
	empty := NewBatchInfo("e", "env", 100, 0)
	if _, err := o.Predict(empty, 100); err == nil {
		t.Fatal("prediction without progress accepted")
	}
}
