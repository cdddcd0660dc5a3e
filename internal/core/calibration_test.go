package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"spequlos/internal/stats"
)

// calibrationArchive is the archive as the reference fit wants it: every
// environment's ratios and bases in the order they were recorded.
type calibrationArchive map[string]*refArchive

type refArchive struct{ ratios, bases []float64 }

func (a calibrationArchive) record(env string, base, actual float64) {
	if a[env] == nil {
		a[env] = &refArchive{}
	}
	a[env].ratios = append(a[env].ratios, actual/base)
	a[env].bases = append(a[env].bases, base)
}

// randomPair draws a (base, actual) pair. With ties, bases are quarters, so
// that equal bases abound and a weight sum is exact in whatever order equal
// ratios are summed, and a third of the ratios are powers of two, which
// repeat exactly. Without, both sides are arbitrary floats: every sum rounds,
// so the fit must add the weights up in the reference's order.
func randomPair(rng *rand.Rand, ties bool) (base, actual float64) {
	if !ties {
		base = 100 + 5000*rng.Float64()
		return base, base * (0.5 + 2*rng.Float64())
	}
	base = float64(1+rng.Intn(40)) / 4
	if rng.Intn(3) == 0 {
		return base, base * float64(int(1)<<rng.Intn(4)) / 2
	}
	return base, base * (0.5 + 2*rng.Float64())
}

// The incremental fit against the from-scratch one it replaced: after every
// Record, over sequences of 1 to 2000 records in one environment or spread
// over several, with repeated ratios and equal bases or with arbitrary
// floats, α is bit for bit stats.WeightedMedian over the environment's
// archive.
func TestCalibrationIncrementalMatchesWeightedMedian(t *testing.T) {
	envs := []string{"BOINC/seti", "XWHEP/g5klyo", "CONDOR/nd"}
	for _, tc := range []struct {
		records, envs int
		ties          bool
	}{
		{1, 1, true}, {2, 1, true}, {3, 1, false}, {10, 3, true}, {137, 3, false},
		{2000, 3, true}, {2000, 3, false}, {2000, 1, true}, {1500, 1, false},
	} {
		rng := rand.New(rand.NewSource(int64(tc.records)))
		c, ref := NewCalibration(), calibrationArchive{}
		for i := 0; i < tc.records; i++ {
			env := envs[rng.Intn(tc.envs)]
			base, actual := randomPair(rng, tc.ties)
			c.Record(env, base, actual)
			ref.record(env, base, actual)
			want := stats.WeightedMedian(ref[env].ratios, ref[env].bases)
			if got := c.Alpha(env); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%+v: α(%s) after record %d = %v, the reference fit gives %v", tc, env, i, got, want)
			}
			if got, want := c.Count(env), len(ref[env].bases); got != want {
				t.Fatalf("%+v: Count(%s) after record %d = %d, want %d", tc, env, i, got, want)
			}
		}
	}
}

// A pair with a non-positive side is not an execution: Record drops it and
// the archive, the fit and the snapshot stay as they were.
func TestCalibrationIncrementalRejectsNonPositive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := NewCalibration()
	for i := 0; i < 50; i++ {
		base, actual := randomPair(rng, true)
		c.Record("env", base, actual)
	}
	snapshot := func() string {
		var buf bytes.Buffer
		if err := c.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	alpha, count, rate, snap := c.Alpha("env"), c.Count("env"), c.SuccessRate("env"), snapshot()
	for _, p := range [][2]float64{{0, 10}, {-1, 10}, {10, 0}, {10, -1}, {0, 0}, {math.Inf(-1), 1}} {
		c.Record("env", p[0], p[1])
		c.Record("fresh", p[0], p[1])
	}
	if got := c.Alpha("env"); math.Float64bits(got) != math.Float64bits(alpha) {
		t.Errorf("α moved from %v to %v", alpha, got)
	}
	if c.Count("env") != count || c.SuccessRate("env") != rate {
		t.Errorf("count %d → %d, success rate %v → %v", count, c.Count("env"), rate, c.SuccessRate("env"))
	}
	if c.Count("fresh") != 0 || c.Alpha("fresh") != 1 {
		t.Errorf("rejected pairs left an environment behind: count %d, α %v", c.Count("fresh"), c.Alpha("fresh"))
	}
	if got := snapshot(); got != snap {
		t.Errorf("snapshot changed:\n%s\nwas:\n%s", got, snap)
	}
}
