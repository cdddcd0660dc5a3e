package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"spequlos/internal/stats"
)

func TestGenerateValidates(t *testing.T) {
	for _, p := range RenewalProfiles() {
		tr := p.Generate(1, 2*86400, 64)
		if err := tr.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if len(tr.Nodes) != 64 {
			t.Errorf("%s: %d nodes, want 64", p.Name, len(tr.Nodes))
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := SETI.Generate(42, 86400, 32)
	b := SETI.Generate(42, 86400, 32)
	if len(a.Nodes) != len(b.Nodes) {
		t.Fatal("node count differs")
	}
	for i := range a.Nodes {
		if a.Nodes[i].Power != b.Nodes[i].Power {
			t.Fatal("powers differ for same seed")
		}
		if len(a.Nodes[i].Intervals) != len(b.Nodes[i].Intervals) {
			t.Fatal("interval counts differ for same seed")
		}
		for j := range a.Nodes[i].Intervals {
			if a.Nodes[i].Intervals[j] != b.Nodes[i].Intervals[j] {
				t.Fatal("intervals differ for same seed")
			}
		}
	}
	c := SETI.Generate(43, 86400, 32)
	diff := false
	for i := range a.Nodes {
		if len(a.Nodes[i].Intervals) != len(c.Nodes[i].Intervals) {
			diff = true
			break
		}
	}
	if !diff && a.Nodes[0].Power == c.Nodes[0].Power {
		t.Fatal("different seeds produced identical traces")
	}
}

// The availability-duration quartiles drive middleware failure dynamics, so
// the generator must reproduce them closely (they are sampled from the
// published distribution directly).
func TestGenerateAvailQuartiles(t *testing.T) {
	for _, p := range RenewalProfiles() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			tr := p.Generate(7, 20*86400, 200)
			st := tr.MeasureStats(600)
			if st.Avail.N < 500 {
				t.Fatalf("too few availability intervals: %d", st.Avail.N)
			}
			check := func(name string, got, want float64) {
				// Boundary truncation shaves long intervals, so allow slack.
				if math.Abs(got-want)/want > 0.45 {
					t.Errorf("%s: got %.1f, want ~%.1f (table 2)", name, got, want)
				}
			}
			check("avail q25", st.Avail.Q25, p.Avail.Q25)
			check("avail q50", st.Avail.Q50, p.Avail.Q50)
			check("avail q75", st.Avail.Q75, p.Avail.Q75)
		})
	}
}

// Duty-cycle calibration: with the full pool the mean concurrency must
// approach Table 2's mean node count.
func TestGenerateMeanConcurrency(t *testing.T) {
	for _, p := range []Profile{NotreDame, G5KLyon, G5KGrenoble} {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			tr := p.Generate(11, 15*86400, 0) // full pool
			st := tr.MeasureStats(1200)
			rel := math.Abs(st.Concurrency.Mean-p.MeanNodes) / p.MeanNodes
			if rel > 0.30 {
				t.Errorf("mean concurrency %.1f, want ~%.1f (%.0f%% off)",
					st.Concurrency.Mean, p.MeanNodes, rel*100)
			}
		})
	}
}

// seti's full pool is 31k nodes; check the duty cycle on a subsample, which
// preserves the per-node process exactly.
func TestSETIDutyCycleOnSubsample(t *testing.T) {
	tr := SETI.Generate(13, 15*86400, 500)
	st := tr.MeasureStats(1200)
	wantMean := SETI.DutyCycle() * 500
	rel := math.Abs(st.Concurrency.Mean-wantMean) / wantMean
	if rel > 0.25 {
		t.Errorf("subsampled mean concurrency %.1f, want ~%.1f", st.Concurrency.Mean, wantMean)
	}
}

func TestPowerDistribution(t *testing.T) {
	tr := SETI.Generate(3, 86400, 400)
	st := tr.MeasureStats(3600)
	if math.Abs(st.Power.Mean-1000) > 100 {
		t.Errorf("power mean %.0f, want ~1000", st.Power.Mean)
	}
	if st.Power.Std < 100 || st.Power.Std > 400 {
		t.Errorf("power std %.0f, want ~250", st.Power.Std)
	}
	g5k := G5KLyon.Generate(3, 86400, 50)
	for _, n := range g5k.Nodes {
		if n.Power != 3000 {
			t.Fatalf("g5k node power %v, want 3000 (homogeneous)", n.Power)
		}
	}
}

// TestConcurrencyAt pins the concurrency MeasureStats samples: at each grid
// instant, the nodes whose interval holds it, an interval being over at its
// end instant.
func TestConcurrencyAt(t *testing.T) {
	tr := &Trace{Name: "x", Length: 100, Nodes: []*Node{
		{ID: 0, Power: 1, Intervals: []Interval{{0, 50}}},
		{ID: 1, Power: 1, Intervals: []Interval{{25, 75}}},
	}}
	// Samples at 10, 20, …, 90: 1 1 2 2 1 1 1 0 0.
	if c := tr.MeasureStats(10).Concurrency; c.N != 9 || c.Max != 2 || c.Min != 0 || c.Sum != 9 {
		t.Errorf("concurrency samples %+v, want the nine samples 1 1 2 2 1 1 1 0 0", c)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	good := &Trace{Name: "g", Length: 100, Nodes: []*Node{
		{ID: 0, Power: 1, Intervals: []Interval{{0, 10}, {20, 30}}},
	}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	bad := []*Trace{
		{Name: "overlap", Length: 100, Nodes: []*Node{{ID: 0, Power: 1, Intervals: []Interval{{0, 10}, {5, 30}}}}},
		{Name: "empty", Length: 100, Nodes: []*Node{{ID: 0, Power: 1, Intervals: []Interval{{10, 10}}}}},
		{Name: "outside", Length: 100, Nodes: []*Node{{ID: 0, Power: 1, Intervals: []Interval{{90, 200}}}}},
		{Name: "power", Length: 100, Nodes: []*Node{{ID: 0, Power: 0, Intervals: []Interval{{0, 10}}}}},
		// A NaN fails every comparison, so each needs a check of its own.
		{Name: "NaN power", Length: 100, Nodes: []*Node{{ID: 0, Power: math.NaN(), Intervals: []Interval{{0, 10}}}}},
		{Name: "infinite power", Length: 100, Nodes: []*Node{{ID: 0, Power: math.Inf(1), Intervals: []Interval{{0, 10}}}}},
		{Name: "NaN start", Length: 100, Nodes: []*Node{{ID: 0, Power: 1, Intervals: []Interval{{math.NaN(), 10}}}}},
		{Name: "NaN end", Length: 100, Nodes: []*Node{{ID: 0, Power: 1, Intervals: []Interval{{0, math.NaN()}}}}},
		{Name: "infinite length", Length: math.Inf(1), Nodes: []*Node{{ID: 0, Power: 1, Intervals: []Interval{{0, math.Inf(1)}}}}},
	}
	for _, tr := range bad {
		if err := tr.Validate(); err == nil {
			t.Errorf("trace %q: corruption not detected", tr.Name)
		}
	}
}

// Property: generated intervals always satisfy structural invariants, for
// any seed and modest pool/length.
func TestGenerateInvariantsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		tr := G5KLyon.Generate(seed, 86400, 8)
		return tr.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr := NotreDame.Generate(5, 86400, 16)
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, "nd")
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Nodes) == 0 {
		t.Fatal("round trip lost all nodes")
	}
	// Compare node-by-node (nodes with zero intervals are dropped by CSV,
	// which is acceptable: they never affect a simulation).
	orig := map[int]*Node{}
	for _, n := range tr.Nodes {
		if len(n.Intervals) > 0 {
			orig[n.ID] = n
		}
	}
	if len(back.Nodes) != len(orig) {
		t.Fatalf("round trip: %d nodes, want %d", len(back.Nodes), len(orig))
	}
	for _, n := range back.Nodes {
		o := orig[n.ID]
		if o == nil {
			t.Fatalf("unexpected node %d", n.ID)
		}
		if n.Power != o.Power || len(n.Intervals) != len(o.Intervals) {
			t.Fatalf("node %d mismatch after round trip", n.ID)
		}
		for j := range n.Intervals {
			if n.Intervals[j] != o.Intervals[j] {
				t.Fatalf("node %d interval %d mismatch", n.ID, j)
			}
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"",
		"node_id,power,start,end\nx,1,0,10\n",
		"node_id,power,start,end\n0,abc,0,10\n",
		"node_id,power,start,end\n0,1,10,5\n", // end before start -> invalid interval
		// Numbers that parse but are not finite: an inf end would make
		// Length +Inf, and MeasureStats' grid endless.
		"node_id,power,start,end\n0,1,0,NaN\n",
		"node_id,power,start,end\n0,1,NaN,10\n",
		"node_id,power,start,end\n0,1,0,inf\n",
		"node_id,power,start,end\n0,NaN,0,10\n",
		"node_id,power,start,end\n0,+Inf,0,10\n",
		"node_id,power,start,end\n0,1,0,10\n0,1,20,nan\n1,2,5,30\n",
		"node_id,power,start,end\n0,1,0,10\n0,2,20,30\n", // node 0's rows disagree on power
	}
	for i, c := range cases {
		if _, err := ReadCSV(bytes.NewBufferString(c), "bad"); err == nil {
			t.Errorf("case %d: error expected", i)
		}
	}
}

func TestProfileByNameAndClasses(t *testing.T) {
	p, ok := ProfileByName("g5kgre")
	if !ok || p.Name != "g5kgre" {
		t.Fatal("lookup failed")
	}
	if _, ok := ProfileByName("nope"); ok {
		t.Fatal("bogus profile found")
	}
	if ClassOf("seti") != ClassDesktopGrid || ClassOf("g5klyo") != ClassBestEffortGrid ||
		ClassOf("spot10") != ClassSpotInstances {
		t.Fatal("class mapping wrong")
	}
}

func BenchmarkGenerateG5KLyon(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		G5KLyon.Generate(uint64(i), 86400, 0)
	}
}

func TestReadFTA(t *testing.T) {
	input := `# Failure Trace Archive event log
% node   start   end     platform
hostA    0       3600    seti
hostB    100     200     seti
hostA    4000    5000    seti
hostB    150     400     seti
`
	tr, err := ReadFTA(strings.NewReader(input), "fta-test",
		stats.Constant{Value: 1000}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Nodes) != 2 {
		t.Fatalf("nodes = %d, want 2", len(tr.Nodes))
	}
	if tr.Length != 5000 {
		t.Fatalf("length = %v, want 5000", tr.Length)
	}
	// hostA keeps two intervals; hostB's overlapping events merge into one.
	if got := len(tr.Nodes[0].Intervals); got != 2 {
		t.Fatalf("hostA intervals = %d, want 2", got)
	}
	if got := tr.Nodes[1].Intervals; len(got) != 1 || got[0] != (Interval{Start: 100, End: 400}) {
		t.Fatalf("hostB merge wrong: %+v", got)
	}
	for _, n := range tr.Nodes {
		if n.Power != 1000 {
			t.Fatalf("power not sampled: %v", n.Power)
		}
	}
}

func TestReadFTAErrors(t *testing.T) {
	cases := []string{
		"",
		"hostA 0\n",
		"hostA x 10\n",
		"hostA 0 y\n",
		"hostA 10 10\n",
	}
	for i, c := range cases {
		if _, err := ReadFTA(strings.NewReader(c), "bad", stats.Constant{Value: 1}, 1); err == nil {
			t.Errorf("case %d: error expected", i)
		}
	}
}

func TestReadFTADeterministicPowers(t *testing.T) {
	input := "h 0 10\n"
	d := stats.TruncatedNormal{Mu: 1000, Sigma: 250, Lo: 100, Hi: 4000}
	a, err := ReadFTA(strings.NewReader(input), "x", d, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := ReadFTA(strings.NewReader(input), "x", d, 9)
	if a.Nodes[0].Power != b.Nodes[0].Power {
		t.Fatal("same seed gave different powers")
	}
}

// TestGenerateParallelDeterminism pins that Generate is bit-identical at any
// worker count — and to the serial generator it replaced: the digests below
// were recorded from the last commit whose Generate was a single loop.
func TestGenerateParallelDeterminism(t *testing.T) {
	const pool = 3*genChunk + 17 // the last chunk is a partial one
	cases := []struct {
		p      Profile
		sha256 string
	}{
		{SETI, "42333c39fd3e4f4adee836672b479c5a2fa6fa1144eec029d109fc649c52d1c4"},      // participation = 1
		{NotreDame, "4af1f6eaa57736583cc2c23d21f558757041051ba1804d2f3f2138b97fdbbb17"}, // participation < 1 (dormancy layer)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range cases {
		if _, part := c.p.calibration(); (part < 1) != (c.p.Name == "nd") {
			t.Fatalf("%s: participation %v no longer covers the intended generator branch", c.p.Name, part)
		}
		var ref *Trace
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			tr := c.p.Generate(7, 20*86400, pool)
			if len(tr.Nodes) != pool {
				t.Fatalf("%s at GOMAXPROCS %d: %d nodes, want %d", c.p.Name, procs, len(tr.Nodes), pool)
			}
			for i, n := range tr.Nodes {
				if n == nil || n.ID != i {
					t.Fatalf("%s at GOMAXPROCS %d: Nodes[%d] = %+v, want the node with that id", c.p.Name, procs, i, n)
				}
			}
			if ref == nil {
				ref = tr
			} else if !reflect.DeepEqual(ref, tr) {
				t.Fatalf("%s: trace at GOMAXPROCS %d differs from GOMAXPROCS 1", c.p.Name, procs)
			}
		}
		h := sha256.New()
		if err := ref.WriteCSV(h); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.sha256 {
			t.Errorf("%s: CSV digest %s, want the serial generator's %s", c.p.Name, got, c.sha256)
		}
	}
}
