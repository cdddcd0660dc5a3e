package trace_test

import (
	"testing"

	"spequlos/internal/spot"
	"spequlos/internal/trace"
)

// requireSweepStats requires MeasureStats to equal the sweep it replaced,
// every field of every summary to the bit.
func requireSweepStats(t *testing.T, tr *trace.Trace, step float64) {
	t.Helper()
	if got, want := tr.MeasureStats(step), tr.MeasureStatsSweep(step); got != want {
		t.Fatalf("%s, step %g:\n got  %+v\n want %+v", tr.Name, step, got, want)
	}
}

// The six Table 2 traces as BuildTable2 draws them: 7 days, seti on a
// 2000-node pool.
func TestMeasureStatsMatchesSweepOnTable2Traces(t *testing.T) {
	names := []string{"seti", "nd", "g5klyo", "g5kgre", "spot10", "spot100"}
	for seed := uint64(1); seed <= 3; seed++ {
		for _, name := range names {
			var src trace.Source
			if p, ok := trace.ProfileByName(name); ok {
				src = p
			} else if p, ok := spot.ProfileByName(name); ok {
				src = p
			} else {
				t.Fatalf("no profile %q", name)
			}
			pool := 0
			if name == "seti" {
				pool = 2000
			}
			tr := src.Generate(seed, 7*86400, pool)
			for _, step := range []float64{900, 600, 7} {
				requireSweepStats(t, tr, step)
			}
		}
	}
}

// grid returns the instants MeasureStats samples at, by the same repeated
// addition.
func grid(step, length float64) []float64 {
	var g []float64
	for at := step; at < length; at += step {
		g = append(g, at)
	}
	return g
}

func TestMeasureStatsMatchesSweepOnHandBuiltTraces(t *testing.T) {
	node := func(id int, ivs ...trace.Interval) *trace.Node {
		return trace.NewNode(id, float64(100*(id+1)), ivs)
	}
	iv := func(s, e float64) trace.Interval { return trace.Interval{Start: s, End: e} }
	drift := grid(0.1, 1000)
	cases := []struct {
		name string
		tr   *trace.Trace
		step float64
	}{
		{"endpoints on grid instants", &trace.Trace{Length: 100, Nodes: []*trace.Node{
			node(0, iv(10, 20), iv(30, 50), iv(60, 90)),
			node(1, iv(20, 30), iv(50, 60)),
		}}, 10},
		{"endpoints before the first and after the last instant", &trace.Trace{Length: 100, Nodes: []*trace.Node{
			node(0, iv(-5, 2), iv(3, 9.99), iv(90.5, 100), iv(100, 120)),
			node(1, iv(0, 95), iv(99, 99.5)),
		}}, 10},
		{"zero-length gaps and intervals", &trace.Trace{Length: 100, Nodes: []*trace.Node{
			node(0, iv(10, 20), iv(20, 40), iv(40, 40), iv(40, 70)),
			node(1, iv(15, 15), iv(15, 25)),
		}}, 10},
		{"a node with no intervals", &trace.Trace{Length: 100, Nodes: []*trace.Node{
			node(0), node(1, iv(5, 55)), node(2),
		}}, 10},
		{"no nodes", &trace.Trace{Length: 100}, 10},
		{"zero length", &trace.Trace{Nodes: []*trace.Node{node(0, iv(0, 1))}}, 10},
		{"step longer than the trace", &trace.Trace{Length: 100, Nodes: []*trace.Node{node(0, iv(0, 50))}}, 200},
		{"length not a multiple of step", &trace.Trace{Length: 95, Nodes: []*trace.Node{
			node(0, iv(0, 90), iv(91, 95)),
			node(1, iv(85, 90.000001), iv(94, 95)),
		}}, 10},
		{"default step", &trace.Trace{Length: 86400, Nodes: []*trace.Node{
			node(0, iv(600, 1200), iv(1800, 86400)),
			node(1, iv(0, 599.5), iv(43200, 43800)),
		}}, 0},
		// 0.1 accumulated ten thousand times drifts from k·0.1: endpoints
		// at k·0.1 and at the accumulated instants straddle each other by
		// an ulp or two.
		{"accumulation drift", &trace.Trace{Length: 1000, Nodes: []*trace.Node{
			node(0, iv(0.3, 0.7), iv(3*0.1*1000, 0.1*7001), iv(0.1*9998, 1000)),
			node(1, iv(drift[2], drift[6]), iv(drift[2999], drift[7000]), iv(drift[9997], drift[9998])),
			node(2, iv(drift[2]+1e-13, drift[6]-1e-13), iv(float64(4999)*0.1, float64(5000)*0.1)),
		}}, 0.1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			c.tr.Name = c.name
			requireSweepStats(t, c.tr, c.step)
		})
	}
}

// FuzzMeasureStats holds MeasureStats to the sweep on traces built from
// bytes. stepSel picks the sampling step, lengthSel the trace length in half
// steps. Each layout byte adds one interval to the current node: its high
// nibble is the gap after the previous interval and its low nibble the
// duration, both in quarter steps, except that a gap nibble of 15 starts the
// interval on the next grid instant; the byte 0xff starts a new node.
func FuzzMeasureStats(f *testing.F) {
	f.Add(uint8(0), uint8(41), []byte{0x12, 0x40, 0xf4, 0xff, 0x08, 0xf0, 0x3c})
	f.Add(uint8(2), uint8(200), []byte{0xf4, 0xf4, 0xf0, 0x00, 0xff, 0xff, 0x11})
	f.Add(uint8(5), uint8(7), []byte{0x88, 0x77, 0x66})
	f.Fuzz(func(t *testing.T, stepSel, lengthSel uint8, layout []byte) {
		steps := []float64{0.1, 1, 7, 10, 0.3, 600, 900, 1.0 / 3}
		step := steps[int(stepSel)%len(steps)]
		tr := &trace.Trace{Name: "fuzz", Length: float64(lengthSel) * step / 2}
		g := grid(step, tr.Length)
		q := step / 4
		var nodes [][]trace.Interval // each node's periods
		end := -step
		for _, b := range layout {
			if len(nodes) == 0 || b == 0xff {
				nodes = append(nodes, nil)
				end = -step
				if b == 0xff {
					continue
				}
			}
			start := end + float64(b>>4)*q
			if b>>4 == 15 {
				start = end
				for _, at := range g {
					if at >= end {
						start = at
						break
					}
				}
			}
			end = start + float64(b&15)*q
			k := len(nodes) - 1
			nodes[k] = append(nodes[k], trace.Interval{Start: start, End: end})
		}
		for id, ivs := range nodes {
			tr.Nodes = append(tr.Nodes, trace.NewNode(id, 1+float64(id), ivs))
		}
		requireSweepStats(t, tr, step)
	})
}
