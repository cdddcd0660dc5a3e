package middleware

import (
	"testing"

	"spequlos/internal/bot"
	"spequlos/internal/sim"
	"spequlos/internal/trace"
)

func TestIdleSetBasics(t *testing.T) {
	s := &idleSet{}
	w1 := &Worker{ID: 1}
	w2 := &Worker{ID: 2, Cloud: true}
	s.Add(w1)
	s.Add(w1) // duplicate no-op
	s.Add(w2)
	if s.Len() != 2 || s.CloudCount() != 1 {
		t.Fatalf("len=%d cloud=%d", s.Len(), s.CloudCount())
	}
	if !s.Contains(w1) {
		t.Fatal("w1 missing")
	}
	if !s.Remove(w2) || s.CloudCount() != 0 {
		t.Fatal("cloud removal broken")
	}
	if s.Remove(w2) {
		t.Fatal("double remove returned true")
	}
	if s.Len() != 1 {
		t.Fatalf("len=%d", s.Len())
	}
}

func TestIdleSetPick(t *testing.T) {
	s := &idleSet{}
	for i := 0; i < 10; i++ {
		s.Add(&Worker{ID: i, Cloud: i%2 == 0})
	}
	w := s.Pick(func(w *Worker) bool { return w.Cloud })
	if w == nil || !w.Cloud {
		t.Fatal("pick failed")
	}
	if s.Len() != 9 {
		t.Fatal("pick did not remove")
	}
	if got := s.Pick(func(w *Worker) bool { return w.ID > 100 }); got != nil {
		t.Fatal("pick matched nothing but returned a worker")
	}
	if s.Len() != 9 {
		t.Fatal("failed pick mutated the set")
	}
}

func TestIdleSetSwapRemoveConsistency(t *testing.T) {
	s := &idleSet{}
	ws := make([]*Worker, 50)
	for i := range ws {
		ws[i] = &Worker{ID: i}
		s.Add(ws[i])
	}
	for i := 0; i < 50; i += 3 {
		s.Remove(ws[i])
	}
	seen := map[int]bool{}
	for _, w := range s.idle {
		if seen[w.ID] {
			t.Fatalf("duplicate worker %d in the idle list", w.ID)
		}
		seen[w.ID] = true
	}
	for i := range ws {
		want := i%3 != 0
		if s.Contains(ws[i]) != want {
			t.Fatalf("worker %d membership = %v, want %v", i, !want, want)
		}
		if seen[ws[i].ID] != want {
			t.Fatalf("worker %d iterated = %v, want %v", i, seen[ws[i].ID], want)
		}
	}
}

func TestProgressHelpers(t *testing.T) {
	p := Progress{Size: 10, Completed: 9, EverAssigned: 10}
	if p.Done() {
		t.Fatal("9/10 should not be done")
	}
	p.Completed = 10
	if !p.Done() {
		t.Fatal("10/10 should be done")
	}
	var zero Progress
	if zero.Done() {
		t.Fatal("an empty batch should not be done")
	}
}

func TestNewCloudWorker(t *testing.T) {
	w := NewCloudWorker(3, 3000, "b1")
	if !w.Cloud || w.DedicatedBatch != "b1" || w.Power != 3000 {
		t.Fatalf("cloud worker wrong: %+v", w)
	}
	if w.ID < 1<<30 {
		t.Fatalf("cloud worker ID %d collides with node ID space", w.ID)
	}
}

func TestBatchFromBoT(t *testing.T) {
	b := bot.Small.Scaled(0.01).Generate("x", 1)
	batch := BatchFromBoT(b)
	if batch.ID != "x" || len(batch.Tasks) != b.Size() || batch.WallClockTime != b.WallClockTime {
		t.Fatalf("conversion wrong: %+v", batch)
	}
}

// fakeServer records join/leave events for binding tests.
type fakeServer struct {
	joins, leaves []int
	attached      map[int]bool
}

func (f *fakeServer) MiddlewareName() string { return "fake" }
func (f *fakeServer) Submit(Batch)           {}
func (f *fakeServer) WorkerJoin(w *Worker) {
	if f.attached == nil {
		f.attached = map[int]bool{}
	}
	if f.attached[w.ID] {
		panic("double join")
	}
	f.attached[w.ID] = true
	f.joins = append(f.joins, w.ID)
}
func (f *fakeServer) WorkerLeave(w *Worker) {
	if !f.attached[w.ID] {
		panic("leave without join")
	}
	delete(f.attached, w.ID)
	f.leaves = append(f.leaves, w.ID)
}
func (f *fakeServer) Progress(string) Progress     { return Progress{} }
func (f *fakeServer) Done(string) bool             { return false }
func (f *fakeServer) Incomplete(string) []bot.Task { return nil }
func (f *fakeServer) MarkCompleted(string, int)    {}
func (f *fakeServer) SetReschedule(bool)           {}
func (f *fakeServer) AddListener(Listener)         {}

func TestBindTraceChurn(t *testing.T) {
	eng := sim.NewEngine()
	tr := &trace.Trace{Name: "x", Length: 100, Nodes: []*trace.Node{
		{ID: 0, Power: 1, Intervals: []trace.Interval{{Start: 0, End: 10}, {Start: 20, End: 30}}},
		{ID: 1, Power: 1, Intervals: []trace.Interval{{Start: 5, End: 50}}},
		{ID: 2, Power: 1}, // no intervals: never joins
	}}
	srv := &fakeServer{}
	b := BindTrace(eng, tr, srv)
	if len(b.workers) != 2 {
		t.Fatalf("workers = %d, want 2 (interval-less node skipped)", len(b.workers))
	}
	eng.Run()
	if len(srv.joins) != 3 || len(srv.leaves) != 3 {
		t.Fatalf("joins=%v leaves=%v", srv.joins, srv.leaves)
	}
}

func TestBindTraceStop(t *testing.T) {
	eng := sim.NewEngine()
	tr := &trace.Trace{Name: "x", Length: 100, Nodes: []*trace.Node{
		{ID: 0, Power: 1, Intervals: []trace.Interval{{Start: 0, End: 10}, {Start: 20, End: 30}}},
	}}
	srv := &fakeServer{}
	b := BindTrace(eng, tr, srv)
	eng.RunUntil(5)
	b.Stop()
	eng.Run()
	if len(srv.joins) != 1 || len(srv.leaves) != 0 {
		t.Fatalf("stop did not freeze churn: joins=%v leaves=%v", srv.joins, srv.leaves)
	}
}

func TestBindTraceOffsetBase(t *testing.T) {
	eng := sim.NewEngine()
	eng.At(1000, func() {}) // advance clock
	eng.Run()
	tr := &trace.Trace{Name: "x", Length: 100, Nodes: []*trace.Node{
		{ID: 0, Power: 1, Intervals: []trace.Interval{{Start: 10, End: 20}}},
	}}
	joined := -1.0
	srv := &fakeServer{}
	BindTrace(eng, tr, srv)
	eng.At(1010, func() {
		if len(srv.joins) != 1 {
			t.Error("join not at base+10")
		}
		joined = eng.Now()
	})
	eng.Run()
	if joined != 1010 {
		t.Fatalf("joined at %v, want 1010 (trace zero = bind time)", joined)
	}
}

func TestListenersFanOut(t *testing.T) {
	var calls []string
	mk := func(tag string) Listener {
		return funcListener{
			onAssigned:  func(b string, id int, at float64) { calls = append(calls, tag+"-a") },
			onCompleted: func(b string, id int, at float64) { calls = append(calls, tag+"-c") },
			onBatch:     func(b string, at float64) { calls = append(calls, tag+"-b") },
		}
	}
	ls := Listeners{mk("x"), mk("y")}
	ls.TaskAssigned("b", 1, 0)
	ls.TaskCompleted("b", 1, 0)
	ls.BatchCompleted("b", 0)
	if len(calls) != 6 {
		t.Fatalf("calls = %v", calls)
	}
}

type funcListener struct {
	onAssigned  func(string, int, float64)
	onCompleted func(string, int, float64)
	onBatch     func(string, float64)
}

func (f funcListener) TaskAssigned(b string, id int, at float64)  { f.onAssigned(b, id, at) }
func (f funcListener) TaskCompleted(b string, id int, at float64) { f.onCompleted(b, id, at) }
func (f funcListener) BatchCompleted(b string, at float64)        { f.onBatch(b, at) }

func (f *fakeServer) WorkerBusy(*Worker) bool { return false }
