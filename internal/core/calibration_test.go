package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"spequlos/internal/stats"
)

// calibrationArchive is the archive as the reference fit wants it: every
// environment's ratios and bases in the order they were recorded.
type calibrationArchive map[string]*refArchive

type refArchive struct{ ratios, bases, actuals []float64 }

func (a calibrationArchive) record(env string, base, actual float64) {
	if a[env] == nil {
		a[env] = &refArchive{}
	}
	a[env].ratios = append(a[env].ratios, actual/base)
	a[env].bases = append(a[env].bases, base)
	a[env].actuals = append(a[env].actuals, actual)
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
			f := c.Fit(env)
			if math.Float64bits(f.Alpha) != math.Float64bits(want) {
				t.Fatalf("%+v: α(%s) after record %d = %v, the reference fit gives %v", tc, env, i, f.Alpha, want)
			}
			if got, want := f.Count, len(ref[env].bases); got != want {
				t.Fatalf("%+v: count(%s) after record %d = %d, want %d", tc, env, i, got, want)
			}
		}
	}
}

// A pair with a non-positive or non-finite side, or whose ratio overflows, is
// not an execution: Record drops it and the archive, the fit and the
// snapshot stay as they were.
func TestCalibrationIncrementalRejectsNonPositive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := NewCalibration()
	for i := 0; i < 50; i++ {
		base, actual := randomPair(rng, true)
		c.Record("env", base, actual)
	}
	snapshot := func() string {
		var buf bytes.Buffer
		if err := (State{NewInformation(), NewCreditSystem(), c}).WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	fit, snap := c.Fit("env"), snapshot()
	nan, inf := math.NaN(), math.Inf(1)
	for _, p := range [][2]float64{{0, 10}, {-1, 10}, {10, 0}, {10, -1}, {0, 0}, {math.Inf(-1), 1},
		{nan, 10}, {10, nan}, {inf, 10}, {10, inf}, {1e-300, 1e300}} {
		c.Record("env", p[0], p[1])
		c.Record("fresh", p[0], p[1])
	}
	if got := c.Fit("env"); math.Float64bits(got.Alpha) != math.Float64bits(fit.Alpha) || got.Hits != fit.Hits || got.Count != fit.Count {
		t.Errorf("fit moved from %+v to %+v", fit, got)
	}
	if got := c.Fit("fresh"); got != (CalibrationFit{Alpha: 1}) {
		t.Errorf("rejected pairs left an environment behind: %+v", got)
	}
	if got := snapshot(); got != snap {
		t.Errorf("snapshot changed:\n%s\nwas:\n%s", got, snap)
	}
}

// fuzzRecords encodes a Record sequence as FuzzCalibrationFit reads it: per
// record, an environment selector byte and the bits of base and actual.
func fuzzRecords(pairs ...[3]float64) []byte {
	var out []byte
	for _, p := range pairs {
		out = append(out, byte(p[0]))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(p[1]))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(p[2]))
	}
	return out
}

// FuzzCalibrationFit runs arbitrary Record sequences, of up to 64 records
// over two environments.
// A pair is archived when both sides are positive and both and their ratio
// finite. After each record, for every environment: Fit's α is bit for bit
// stats.WeightedMedian's over the archived pairs (1 with none), its hits
// are a direct count of the ±PredictionTolerance band, and a state-image
// round trip reads the same Fit.
func FuzzCalibrationFit(f *testing.F) {
	nan, inf := math.NaN(), math.Inf(1)
	f.Add(fuzzRecords([3]float64{0, 100, 100}, [3]float64{0, 100, 80}, [3]float64{0, 100, 120}, [3]float64{1, 50, 77}, [3]float64{0, 100, 125}))
	// Equal ratios over bases whose sums round: the tie order decides α.
	f.Add(fuzzRecords([3]float64{0, 0.1, 0.3}, [3]float64{0, 0.7, 0.5}, [3]float64{0, 0.2, 0.6}, [3]float64{0, 0.3, 0.9}, [3]float64{0, 0.4, 0.2}))
	f.Add(fuzzRecords([3]float64{0, 0, 1}, [3]float64{0, -1, 5}, [3]float64{1, nan, 1}, [3]float64{1, 1, inf},
		[3]float64{0, 1e-300, 1e300}, [3]float64{1, 1e308, 1e308}, [3]float64{1, 1e308, 1e308}, [3]float64{0, 5e-324, 1}))
	envs := []string{"BOINC/seti/SMALL", "XWHEP/g5klyo/BIG"}
	same := func(a, b CalibrationFit) bool {
		return math.Float64bits(a.Alpha) == math.Float64bits(b.Alpha) && a.Hits == b.Hits && a.Count == b.Count
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, ref := NewCalibration(), calibrationArchive{}
		for i := 0; len(data) >= 17 && i < 64; i++ {
			env := envs[data[0]%2]
			base := math.Float64frombits(binary.LittleEndian.Uint64(data[1:]))
			actual := math.Float64frombits(binary.LittleEndian.Uint64(data[9:]))
			data = data[17:]
			c.Record(env, base, actual)
			if base > 0 && actual > 0 && !math.IsInf(base, 1) && !math.IsInf(actual, 1) && !math.IsInf(actual/base, 1) {
				ref.record(env, base, actual)
			}
			var img bytes.Buffer
			if err := (State{NewInformation(), NewCreditSystem(), c}).WriteJSON(&img); err != nil {
				t.Fatalf("record %d (%v, %v): writing the state image: %v", i, base, actual, err)
			}
			back, err := ReadState(&img)
			if err != nil {
				t.Fatalf("record %d: reading the state image back: %v", i, err)
			}
			for _, env := range envs {
				want := CalibrationFit{Alpha: 1}
				if r := ref[env]; r != nil {
					want = CalibrationFit{Alpha: stats.WeightedMedian(r.ratios, r.bases), Count: len(r.bases)}
					for j, base := range r.bases {
						tp := want.Alpha * base
						if math.Abs(r.actuals[j]-tp) <= PredictionTolerance*tp {
							want.Hits++
						}
					}
				}
				if got := c.Fit(env); !same(got, want) {
					t.Fatalf("record %d (%v, %v): Fit(%s) = %+v, the reference gives %+v", i, base, actual, env, got, want)
				}
				if got := back.Calibration.Fit(env); !same(got, want) {
					t.Fatalf("record %d: Fit(%s) after a state-image round trip = %+v, want %+v", i, env, got, want)
				}
			}
		}
	})
}
