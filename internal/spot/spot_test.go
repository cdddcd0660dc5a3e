package spot

import (
	"math"
	"testing"
	"testing/quick"

	"spequlos/internal/stats"
	"spequlos/internal/trace"
)

func TestPricesPositiveAndFloored(t *testing.T) {
	m := DefaultMarket()
	prices := m.Prices(1, 10*86400)
	if len(prices) == 0 {
		t.Fatal("no prices")
	}
	for _, p := range prices {
		if p < m.FloorPrice {
			t.Fatalf("price %v below floor %v", p, m.FloorPrice)
		}
		if p > 10 {
			t.Fatalf("price %v absurdly high", p)
		}
	}
}

func TestPricesDeterministic(t *testing.T) {
	m := DefaultMarket()
	a := m.Prices(9, 86400)
	b := m.Prices(9, 86400)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed different prices")
		}
	}
}

func TestPricesHaveSpikes(t *testing.T) {
	m := DefaultMarket()
	prices := m.Prices(2, 30*86400)
	max := 0.0
	for _, p := range prices {
		if p > max {
			max = p
		}
	}
	if max < m.BasePrice*1.5 {
		t.Errorf("no visible spikes over 30 days: max price %v", max)
	}
}

func TestInstanceCount(t *testing.T) {
	if InstanceCount(10, 0.125) != 80 {
		t.Errorf("got %d, want 80", InstanceCount(10, 0.125))
	}
	if InstanceCount(10, 0) != 0 {
		t.Error("zero price should give zero instances")
	}
}

// Table 2: spot10 mean ≈ 82 instances, spot100 mean ≈ 824; max 87 / 877.
func TestInstanceCountStatistics(t *testing.T) {
	for _, tc := range []struct {
		p        Profile
		mean     float64
		maxBound float64
	}{
		{Spot10, 82.186, 95},
		{Spot100, 823.95, 950},
	} {
		tr := tc.p.Generate(5, 30*86400, 0)
		st := tr.MeasureStats(900)
		rel := math.Abs(st.Concurrency.Mean-tc.mean) / tc.mean
		if rel > 0.10 {
			t.Errorf("%s mean instances %.1f, want ~%.1f", tc.p.Name, st.Concurrency.Mean, tc.mean)
		}
		if st.Concurrency.Max > tc.maxBound {
			t.Errorf("%s max instances %.0f over bound %.0f", tc.p.Name, st.Concurrency.Max, tc.maxBound)
		}
	}
}

// Spikes must knock out a large fraction of the fleet occasionally (Table 2
// spot10 min = 29 of 87).
func TestSpikesReduceFleet(t *testing.T) {
	tr := Spot10.Generate(5, 60*86400, 0)
	st := tr.MeasureStats(900)
	if st.Concurrency.Min > 65 {
		t.Errorf("min instances %.0f: spikes never bite", st.Concurrency.Min)
	}
}

func TestGenerateTraceValid(t *testing.T) {
	for _, p := range Profiles() {
		tr := p.Generate(3, 5*86400, 0)
		if err := tr.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if len(tr.Nodes) == 0 {
			t.Errorf("%s: no nodes", p.Name)
		}
	}
}

// availableAt reports whether one of the node's intervals holds t.
func availableAt(n *trace.Node, t float64) bool {
	for _, iv := range n.Intervals {
		if iv.Start <= t && t < iv.End {
			return true
		}
	}
	return false
}

func TestGeneratePoolCap(t *testing.T) {
	tr := Spot100.Generate(3, 86400, 50)
	if len(tr.Nodes) != 50 {
		t.Fatalf("pool cap ignored: %d nodes", len(tr.Nodes))
	}
	// Low-index instances bid higher, so node 0 must be available whenever
	// node 49 is.
	n0, n49 := tr.Nodes[0], tr.Nodes[49]
	for _, iv := range n49.Intervals {
		mid := (iv.Start + iv.End) / 2
		if !availableAt(n0, mid) {
			t.Fatal("higher-bid instance unavailable while lower-bid ran")
		}
	}
}

// Property: instance availability is monotone in the bid ladder — at any
// time, the set of running instances is a prefix of the ladder.
func TestLadderPrefixProperty(t *testing.T) {
	tr := Spot10.Generate(7, 3*86400, 0)
	f := func(u float64) bool {
		at := math.Abs(math.Mod(u, 1)) * tr.Length
		run := false // whether we've seen an unavailable node yet
		for _, n := range tr.Nodes {
			avail := availableAt(n, at)
			if avail && run {
				return false
			}
			if !avail {
				run = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAvailabilityDurationsAreHoursScale(t *testing.T) {
	// Table 2 spot10 availability quartiles: 4415, 5432, 17109 s. The
	// market is synthetic, so allow a wide band but require hour-scale runs
	// (this is what distinguishes spot from the minutes-scale g5klyo).
	tr := Spot10.Generate(11, 45*86400, 0)
	st := tr.MeasureStats(900)
	if st.Avail.Q50 < 1200 || st.Avail.Q50 > 40000 {
		t.Errorf("median availability %.0f s, want hour-scale (~5432)", st.Avail.Q50)
	}
}

func TestPowerGridClass(t *testing.T) {
	tr := Spot10.Generate(3, 86400, 0)
	var sum float64
	for _, n := range tr.Nodes {
		sum += n.Power
	}
	mean := sum / float64(len(tr.Nodes))
	if math.Abs(mean-3000) > 300 {
		t.Errorf("spot power mean %.0f, want ~3000", mean)
	}
}

func TestProfileByName(t *testing.T) {
	if _, ok := ProfileByName("spot10"); !ok {
		t.Fatal("spot10 missing")
	}
	if _, ok := ProfileByName("spotX"); ok {
		t.Fatal("bogus profile found")
	}
}

func TestMeanPriceCalibration(t *testing.T) {
	// The harmonic-mean price must sit near $10/82.186 so that mean
	// instance counts match Table 2.
	m := DefaultMarket()
	prices := m.Prices(12, 60*86400)
	counts := make([]float64, len(prices))
	for i, p := range prices {
		counts[i] = float64(InstanceCount(10, p))
	}
	mean := stats.Summarize(counts).Mean
	if math.Abs(mean-82.186)/82.186 > 0.10 {
		t.Errorf("mean count %.1f, want ~82.2", mean)
	}
}
