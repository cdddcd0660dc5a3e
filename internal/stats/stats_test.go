package stats

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

// The sampler must be a bit-identical fast path: any ULP drift would change
// every synthesized trace and, through it, every golden artifact.
func TestQuartileSamplerBitIdentical(t *testing.T) {
	dists := []QuartileDist{
		MustQuartileDist(30, 120, 1500, 1, 8),
		MustQuartileDist(5, 5, 5, 5, 1), // degenerate segments
		MustQuartileDist(0.1, 2.5, 7.25, 0.1, 3.5),
	}
	for _, d := range dists {
		s := d.Sampler()
		for i := -2; i <= 1002; i++ {
			u := float64(i) / 1000
			if got, want := s.Quantile(u), d.Quantile(u); got != want {
				t.Fatalf("%v: sampler.Quantile(%g) = %v, dist gives %v", d, u, got, want)
			}
		}
	}
}

func newRand(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, seed+1)) }

func sample(d Dist, n int, seed uint64) []float64 {
	r := newRand(seed)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = d.Sample(r)
	}
	return xs
}

func TestNormalMoments(t *testing.T) {
	xs := sample(Normal{Mu: 10, Sigma: 2}, 50000, 1)
	s := Summarize(xs)
	if math.Abs(s.Mean-10) > 0.05 {
		t.Errorf("normal mean = %v, want ~10", s.Mean)
	}
	if math.Abs(s.Std-2) > 0.05 {
		t.Errorf("normal std = %v, want ~2", s.Std)
	}
}

func TestTruncatedNormalBounds(t *testing.T) {
	d := TruncatedNormal{Mu: 1000, Sigma: 250, Lo: 100, Hi: 4000}
	for _, v := range sample(d, 10000, 2) {
		if v < 100 || v > 4000 {
			t.Fatalf("truncated normal out of bounds: %v", v)
		}
	}
}

func TestTruncatedNormalDegenerate(t *testing.T) {
	// Mean far outside the window: must clamp, not loop forever.
	d := TruncatedNormal{Mu: -50, Sigma: 0.001, Lo: 1, Hi: 2}
	v := d.Sample(newRand(3))
	if v < 1 || v > 2 {
		t.Fatalf("degenerate truncated normal out of bounds: %v", v)
	}
}

func TestWeibullQuantileAndMean(t *testing.T) {
	// Table 3 RANDOM arrival process parameters.
	d := Weibull{Lambda: 91.98, K: 0.57}
	xs := sample(d, 200000, 6)
	sort.Float64s(xs)
	med := QuantileSorted(xs, 0.5)
	if want := d.Lambda * math.Pow(math.Ln2, 1/d.K); math.Abs(med-want)/want > 0.05 {
		t.Errorf("weibull median = %v, want ~%v", med, want)
	}
	if got, want := Summarize(xs).Mean, d.Mean(); math.Abs(got-want)/want > 0.05 {
		t.Errorf("weibull mean = %v, want ~%v", got, want)
	}
	if d.Mean() < 91.98 {
		t.Errorf("weibull k<1 mean %v should exceed lambda", d.Mean())
	}
}

func TestQuartileDistMatchesQuartiles(t *testing.T) {
	// seti availability quartiles from Table 2.
	d := MustQuartileDist(61, 531, 5407, 1, 8)
	xs := sample(d, 200000, 7)
	sort.Float64s(xs)
	for _, tc := range []struct{ p, want float64 }{{0.25, 61}, {0.5, 531}, {0.75, 5407}} {
		got := QuantileSorted(xs, tc.p)
		if math.Abs(got-tc.want)/tc.want > 0.05 {
			t.Errorf("q%.0f = %v, want ~%v", tc.p*100, got, tc.want)
		}
	}
	if max := xs[len(xs)-1]; max > 5407*8+1 {
		t.Errorf("tail cap violated: max=%v", max)
	}
	if min := xs[0]; min < 1 {
		t.Errorf("floor violated: min=%v", min)
	}
}

func TestQuartileDistQuantileMonotoneProperty(t *testing.T) {
	d := MustQuartileDist(21, 51, 63, 1, 8)
	f := func(a, b float64) bool {
		pa, pb := math.Abs(math.Mod(a, 1)), math.Abs(math.Mod(b, 1))
		if pa > pb {
			pa, pb = pb, pa
		}
		return d.Quantile(pa) <= d.Quantile(pb)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuartileDistMeanIntegration(t *testing.T) {
	d := MustQuartileDist(100, 200, 400, 10, 4)
	analytic := d.Mean()
	empirical := Summarize(sample(d, 300000, 8)).Mean
	if math.Abs(analytic-empirical)/empirical > 0.02 {
		t.Errorf("integrated mean %v vs empirical %v", analytic, empirical)
	}
}

func TestNewQuartileDistValidation(t *testing.T) {
	cases := []struct{ q25, q50, q75, min, cap float64 }{
		{-1, 2, 3, 0.5, 8},
		{3, 2, 1, 0.5, 8},
		{1, 2, 3, 0, 8},
		{1, 2, 3, 5, 8},
		{1, 2, 3, 0.5, 0.5},
	}
	for _, c := range cases {
		if _, err := NewQuartileDist(c.q25, c.q50, c.q75, c.min, c.cap); err == nil {
			t.Errorf("NewQuartileDist(%v) accepted invalid input", c)
		}
	}
	if _, err := NewQuartileDist(1, 2, 3, 0.5, 8); err != nil {
		t.Errorf("valid input rejected: %v", err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Q50 != 3 {
		t.Errorf("summary wrong: %+v", s)
	}
	if s.Q25 != 2 || s.Q75 != 4 {
		t.Errorf("quartiles wrong: %+v", s)
	}
	if empty := Summarize(nil); empty.N != 0 {
		t.Errorf("empty summary: %+v", empty)
	}
	one := Summarize([]float64{7})
	if one.Mean != 7 || one.Std != 0 || one.Q50 != 7 {
		t.Errorf("singleton summary: %+v", one)
	}
}

func TestQuantileSortedEdges(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if QuantileSorted(xs, 0) != 1 || QuantileSorted(xs, 1) != 4 {
		t.Error("edge quantiles wrong")
	}
	if got := QuantileSorted(xs, 0.5); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if !math.IsNaN(QuantileSorted(nil, 0.5)) {
		t.Error("empty quantile should be NaN")
	}
}

func TestQuantileSortedWithinRangeProperty(t *testing.T) {
	f := func(raw []float64, p float64) bool {
		xs := raw[:0]
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		sort.Float64s(xs)
		pp := math.Abs(math.Mod(p, 1))
		q := QuantileSorted(xs, pp)
		return q >= xs[0] && q <= xs[len(xs)-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]float64{0.1, 0.9, 1.1, 2.5, 7.0, -1}, 0, 5, 5)
	if h.N != 6 {
		t.Fatalf("N=%d", h.N)
	}
	if h.Counts[0] != 3 { // 0.1, 0.9, -1 (clamped)
		t.Errorf("bin0=%d, want 3 (%v)", h.Counts[0], h.Counts)
	}
	if h.Counts[4] != 1 { // 7.0 clamped into last bin
		t.Errorf("bin4=%d, want 1", h.Counts[4])
	}
	var sum float64
	for _, f := range h.Frac {
		sum += f
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("fractions sum to %v", sum)
	}
	if c := h.BinCenter(0); c != 0.5 {
		t.Errorf("bin center = %v, want 0.5", c)
	}
}

func TestWeightedMedian(t *testing.T) {
	if got := WeightedMedian([]float64{1, 2, 3}, []float64{1, 1, 1}); got != 2 {
		t.Errorf("unweighted median = %v, want 2", got)
	}
	if got := WeightedMedian([]float64{1, 2, 3}, []float64{10, 1, 1}); got != 1 {
		t.Errorf("weighted median = %v, want 1", got)
	}
	if !math.IsNaN(WeightedMedian(nil, nil)) {
		t.Error("empty weighted median should be NaN")
	}
	// Non-positive weights ignored.
	if got := WeightedMedian([]float64{1, 2}, []float64{0, 1}); got != 2 {
		t.Errorf("zero-weight value used: %v", got)
	}
}

// Property: the weighted median minimizes Σ w|v−x| versus nearby candidates.
func TestWeightedMedianMinimizesL1(t *testing.T) {
	f := func(seed uint64) bool {
		r := newRand(seed)
		n := 3 + int(r.Uint64()%20)
		vals := make([]float64, n)
		ws := make([]float64, n)
		for i := range vals {
			vals[i] = r.Float64() * 100
			ws[i] = 0.1 + r.Float64()
		}
		m := WeightedMedian(vals, ws)
		cost := func(v float64) float64 {
			var c float64
			for i := range vals {
				c += ws[i] * math.Abs(v-vals[i])
			}
			return c
		}
		cm := cost(m)
		for _, v := range vals {
			if cost(v) < cm-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDistStrings(t *testing.T) {
	for _, d := range []Dist{
		Constant{1}, Normal{0, 1}, Weibull{1, 1}, TruncatedNormal{1, 1, 0, 2},
		MustQuartileDist(1, 2, 3, 0.5, 8),
	} {
		if d.String() == "" {
			t.Errorf("%T has empty String()", d)
		}
	}
}

func TestConstant(t *testing.T) {
	if (Constant{5}).Mean() != 5 || (Constant{5}).Sample(newRand(1)) != 5 {
		t.Error("constant dist wrong")
	}
}
