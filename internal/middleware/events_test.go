package middleware

import (
	"fmt"
	"reflect"
	"testing"

	"spequlos/internal/bot"
	"spequlos/internal/sim"
	"spequlos/internal/trace"
)

// arrivals steps the engine to its end and returns, per event, the instant
// and the IDs of the tasks the stub server enqueued in it.
func arrivals(eng *sim.Engine, s *stubServer) []string {
	var log []string
	for seen := 0; eng.Step(); seen = len(s.queue) {
		ids := ""
		for _, t := range s.queue[seen:] {
			ids += fmt.Sprintf(" %d", t.Spec.ID)
		}
		log = append(log, fmt.Sprintf("%g:%s", eng.Now(), ids))
	}
	return log
}

// TestSimultaneousArrivalsAreOneEvent: a batch's tasks that share an arrival
// offset arrive in one event, in slice order; each run of consecutive tasks
// with one offset is an event of its own, and the runs at one instant fire
// in submission order, as one event per task would.
func TestSimultaneousArrivalsAreOneEvent(t *testing.T) {
	batch := func(offsets ...float64) Batch {
		b := Batch{ID: "b"}
		for i, off := range offsets {
			b.Tasks = append(b.Tasks, bot.Task{ID: i, NOps: 1, Arrival: off})
		}
		return b
	}
	for _, c := range []struct {
		name    string
		offsets []float64
		events  int
		want    []string
	}{
		{"all at 0", []float64{0, 0, 0, 0, 0}, 1, []string{"0: 0 1 2 3 4"}},
		{"mixed", []float64{0, 0, 5, 5, 5, 0, 2}, 4, []string{"0: 0 1", "0: 5", "2: 6", "5: 2 3 4"}},
		{"one each", []float64{3, 1, 2}, 3, []string{"1: 1", "2: 2", "3: 0"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			eng := sim.NewEngine()
			s := newStub(eng)
			s.Submit(batch(c.offsets...))
			if got := eng.Pending(); got != c.events {
				t.Fatalf("Submit put %d events on the engine, want %d", got, c.events)
			}
			if got := arrivals(eng, s); !reflect.DeepEqual(got, c.want) {
				t.Fatalf("arrivals %q, want %q", got, c.want)
			}
			if p := s.Progress("b"); p.Arrived != len(c.offsets) || p.Queued != len(c.offsets) {
				t.Fatalf("progress after the arrivals: %+v", p)
			}
		})
	}
}

// TestBindStartEvent: the nodes up at the bind time join in one start
// event, in node order and before any later join; every other node keeps
// its own first join event. At a bind time > 0 the test is the event time,
// so a start that does not move the bind time joins in the start event.
func TestBindStartEvent(t *testing.T) {
	node := func(id int, start float64) *trace.Node {
		if start < 0 {
			return trace.NewNode(id, 1, nil)
		}
		return trace.NewNode(id, 1, []trace.Interval{{Start: start, End: start + 100}})
	}
	for _, c := range []struct {
		name   string
		base   float64
		starts []float64 // one node each; -1: a node with no period
		events int
		first  []int // the nodes the first event joins
		at     float64
	}{
		{"at zero", 0, []float64{0, 10, 0, -1, 3, 0}, 3, []int{0, 2, 5}, 0},
		{"none up", 0, []float64{4, 2}, 2, []int{1}, 2},
		{"all up", 0, []float64{0, 0, 0}, 1, []int{0, 1, 2}, 0},
		{"rounded start", 1e6, []float64{1e-12, 1, 0}, 2, []int{0, 2}, 1e6},
	} {
		t.Run(c.name, func(t *testing.T) {
			eng := sim.NewEngine()
			if c.base > 0 {
				eng.RunUntil(c.base)
			}
			tr := &trace.Trace{Name: "x", Length: 1e7}
			for i, start := range c.starts {
				tr.Nodes = append(tr.Nodes, node(i, start))
			}
			srv := &fakeServer{}
			new(Binding).Bind(eng, tr, srv)
			if got := eng.Pending(); got != c.events {
				t.Fatalf("Bind put %d events on the engine, want %d", got, c.events)
			}
			eng.Step()
			if !reflect.DeepEqual(srv.joins, c.first) || eng.Now() != c.at {
				t.Fatalf("first event at %g joined %v, want %v at %g", eng.Now(), srv.joins, c.first, c.at)
			}
			eng.Run()
			if len(srv.leaves) != len(srv.joins) {
				t.Fatalf("joins %v, leaves %v", srv.joins, srv.leaves)
			}
		})
	}
}
