package trace

import (
	"bytes"
	"math"
	"math/rand/v2"
	"sync"
	"testing"
)

// sameInterval compares bit for bit: -0 and NaN payloads would count.
func sameInterval(a, b Interval) bool {
	return math.Float64bits(a.Start) == math.Float64bits(b.Start) &&
		math.Float64bits(a.End) == math.Float64bits(b.End)
}

// checkAt reads node.At(i) and compares it with the materialised reference,
// including the "no further interval" answer past the reference's end.
func checkAt(t *testing.T, what string, node, ref *Node, i int) {
	t.Helper()
	got, ok := node.At(i)
	if i >= len(ref.all()) {
		if ok || got != (Interval{}) {
			t.Fatalf("%s node %d: At(%d) = %+v, %v; Generate has only %d intervals", what, ref.ID, i, got, ok, len(ref.all()))
		}
		return
	}
	if !ok || !sameInterval(got, ref.all()[i]) {
		t.Fatalf("%s node %d: At(%d) = %+v, %v; Generate has %+v", what, ref.ID, i, got, ok, ref.all()[i])
	}
}

// TestOnDemandMatchesGenerate pins that an open trace, read through At in any
// node order and to uneven depths and then drained, is Generate's trace bit
// for bit — Generate is the same generator drained, so this is what keeps a
// partial read from disturbing a node's draw sequence.
func TestOnDemandMatchesGenerate(t *testing.T) {
	clipped, empty := 0, 0
	for _, p := range RenewalProfiles() {
		for _, seed := range []uint64{1, 7, 20260611} {
			for _, c := range []struct {
				length float64
				pool   int
			}{{3600, 1}, {86400, 17}, {4 * 86400, genChunk + 9}} {
				what := p.Name
				ref := p.Generate(seed, c.length, c.pool)
				tr := p.Open(seed, c.length, c.pool)
				if len(tr.Nodes) != len(ref.Nodes) || tr.Length != ref.Length || tr.Name != ref.Name {
					t.Fatalf("%s: open trace %d nodes over %g, Generate %d over %g", what, len(tr.Nodes), tr.Length, len(ref.Nodes), ref.Length)
				}
				for _, n := range tr.Nodes {
					if n.Drawn() != 0 {
						t.Fatalf("%s node %d: %d intervals drawn by Open", what, n.ID, n.Drawn())
					}
				}
				if before := tr.Bytes(); before <= 0 || tr.Nodes[0].Drawn() != 0 {
					t.Fatalf("%s: Bytes() = %d drew the trace", what, before)
				}

				// Uneven partial reads in shuffled node order: some nodes not at
				// all, some straight to a deep index, some one by one past the end.
				rng := rand.New(rand.NewPCG(seed, uint64(c.pool)))
				for _, id := range rng.Perm(len(tr.Nodes)) {
					node, rn := tr.Nodes[id], ref.Nodes[id]
					if node.Power != rn.Power || node.ID != rn.ID {
						t.Fatalf("%s node %d: header (%d, %v), Generate (%d, %v)", what, id, node.ID, node.Power, rn.ID, rn.Power)
					}
					switch rng.IntN(4) {
					case 0: // untouched until the drain
					case 1:
						deep := rng.IntN(len(rn.all()) + 2)
						checkAt(t, what, node, rn, deep)
						checkAt(t, what, node, rn, deep/2)
					case 2:
						for i := 0; i <= rng.IntN(len(rn.all())+1); i++ {
							checkAt(t, what, node, rn, i)
						}
					case 3:
						for i := 0; i <= len(rn.all())+1; i++ {
							checkAt(t, what, node, rn, i)
						}
					}
					if node.Drawn() > len(rn.all()) {
						t.Fatalf("%s node %d: drew %d intervals, Generate has %d", what, id, node.Drawn(), len(rn.all()))
					}
				}

				// A whole-trace reader drains; the CSV is every interval in order.
				var got, want bytes.Buffer
				if err := tr.WriteCSV(&got); err != nil {
					t.Fatal(err)
				}
				if err := ref.WriteCSV(&want); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Fatalf("%s seed %d: drained CSV differs from Generate's", what, seed)
				}
				if tr.Bytes() <= ref.Bytes() {
					t.Fatalf("%s: drained on-demand trace reports %d bytes, the materialised one %d", what, tr.Bytes(), ref.Bytes())
				}
				for id, node := range tr.Nodes {
					rn := ref.Nodes[id]
					if node.Drawn() != len(rn.all()) {
						t.Fatalf("%s node %d: %d intervals after the drain, want %d", what, id, node.Drawn(), len(rn.all()))
					}
					for i := 0; i <= len(rn.all()); i++ {
						checkAt(t, what, node, rn, i)
					}
					if n := len(rn.all()); n == 0 {
						empty++
					} else if rn.all()[n-1].End == c.length {
						clipped++
					}
				}
				if err := tr.Validate(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// The cases above must include both edge answers, or they pin nothing.
	if clipped == 0 || empty == 0 {
		t.Fatalf("cases cover %d nodes clipped at the trace length and %d with no interval; want both", clipped, empty)
	}
}

// TestOnDemandConcurrentReaders reads one open trace from 8 goroutines at
// once, each in its own node order: every reader sees Generate's sequence,
// whichever of them happens to draw it. Run under -race.
func TestOnDemandConcurrentReaders(t *testing.T) {
	for _, p := range []Profile{G5KLyon, NotreDame} {
		ref := p.Generate(3, 2*86400, 40)
		tr := p.Open(3, 2*86400, 40)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewPCG(uint64(g), 1))
				for _, id := range rng.Perm(len(tr.Nodes)) {
					node, rn := tr.Nodes[id], ref.Nodes[id]
					for i := 0; ; i++ {
						got, ok := node.At(i)
						if i >= len(rn.all()) {
							if ok {
								t.Errorf("%s reader %d node %d: At(%d) = %+v past Generate's %d intervals", p.Name, g, id, i, got, len(rn.all()))
							}
							break
						}
						if !ok || !sameInterval(got, rn.all()[i]) {
							t.Errorf("%s reader %d node %d: At(%d) = %+v, %v; Generate has %+v", p.Name, g, id, i, got, ok, rn.all()[i])
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		if got, want := tr.MeasureStats(900), ref.MeasureStats(900); got != want {
			t.Errorf("%s: stats of the trace read concurrently %+v, of Generate's %+v", p.Name, got, want)
		}
	}
}

// TestOnDemandOneNodeManyReaders starts 8 readers on one open node at once:
// every reader sees Generate's periods, whichever of them draws them. Run
// under -race.
func TestOnDemandOneNodeManyReaders(t *testing.T) {
	const seed, length, pool = 5, 4 * 86400, 4
	ref := G5KLyon.Generate(seed, length, pool)
	for id, rn := range ref.Nodes {
		want := rn.all()
		if len(want) < 8 {
			t.Fatalf("node %d has %d periods; the case needs a node drawn in several extends", id, len(want))
		}
		node := G5KLyon.Open(seed, length, pool).Nodes[id]
		var start, done sync.WaitGroup
		start.Add(1)
		for g := 0; g < 8; g++ {
			done.Add(1)
			go func() {
				defer done.Done()
				start.Wait()
				for i := 0; i <= len(want); i++ {
					got, ok := node.At(i)
					if ok != (i < len(want)) || ok && !sameInterval(got, want[i]) {
						t.Errorf("reader %d node %d: At(%d) = %+v, %v; Generate has %d periods", g, id, i, got, ok, len(want))
						return
					}
				}
			}()
		}
		start.Done()
		done.Wait()
	}
}

// TestNodeWithoutPeriods pins what a node with no periods answers: a whole
// node built from nil and a zero Node both read as no periods, drawing
// nothing.
func TestNodeWithoutPeriods(t *testing.T) {
	for what, n := range map[string]*Node{"NewNode(3, 1, nil)": NewNode(3, 1, nil), "Node{}": new(Node)} {
		if iv, ok := n.At(0); ok || iv != (Interval{}) {
			t.Errorf("%s: At(0) = %+v, %v; want no period", what, iv, ok)
		}
		if n.Drawn() != 0 || len(n.all()) != 0 {
			t.Errorf("%s: %d periods drawn, %d in all", what, n.Drawn(), len(n.all()))
		}
	}
	tr := &Trace{Name: "empty", Length: 10, Nodes: []*Node{NewNode(0, 1, nil)}}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil || buf.String() != "node_id,power,start,end\n" {
		t.Fatalf("WriteCSV = %q, %v; want the header alone", buf.String(), err)
	}
}
