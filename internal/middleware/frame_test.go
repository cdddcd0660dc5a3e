package middleware

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"spequlos/internal/bot"
	"spequlos/internal/sim"
)

type (
	stubFrame = Frame[struct{}, struct{}]
	stubBatch = BatchState[struct{}, struct{}]
	stubTask  = Task[struct{}, struct{}]
	stubExec  = Exec[struct{}, struct{}]
)

// stubServer is the least a server on the frame can be: one FIFO of tasks,
// executions that take one second, results that never complete a task, and
// BOINC's join and leave (an interrupted execution is parked on its worker
// and resumed when it comes back).
type stubServer struct {
	*stubFrame
	queue []*stubTask
}

func newStub(eng *sim.Engine) *stubServer {
	s := &stubServer{}
	s.stubFrame = NewFrame[struct{}, struct{}](eng, "STUB", s)
	return s
}

func (s *stubServer) Enqueue(t *stubTask) { s.queue = append(s.queue, t) }
func (s *stubServer) HasQueued() bool     { return s.FirstQueued(nil, nil) != nil }
func (s *stubServer) FirstQueued(*Worker, *stubBatch) *stubTask {
	for _, t := range s.queue {
		if t.Queued() {
			return t
		}
	}
	return nil
}
func (s *stubServer) MayDuplicate(*Worker, *stubTask) bool { return false }
func (s *stubServer) Start(ex *stubExec) {
	ex.Task.SetQueued(false)
	s.Run(ex, 1)
}
func (s *stubServer) Result(*stubExec) bool { return false }
func (s *stubServer) Expire(*stubExec)      {}
func (s *stubServer) Clear()                { clear(s.queue); s.queue = s.queue[:0] }

func (s *stubServer) WorkerJoin(w *Worker) {
	if !s.Attach(w) {
		return
	}
	if ex := s.Unpark(w); ex != nil {
		s.Resume(ex, 1)
		return
	}
	s.Offer(w)
}

func (s *stubServer) WorkerLeave(w *Worker) {
	if ex := s.Detach(w); ex != nil {
		s.Park(ex)
	}
}

// TestWorkerSlots: a server numbers the workers it sees densely, whatever
// their IDs; a worker belongs to one server; a worker it never saw is
// neither busy, detachable nor idle.
func TestWorkerSlots(t *testing.T) {
	eng := sim.NewEngine()
	s := newStub(eng)
	ws := []*Worker{{ID: 3, Power: 1}, {ID: 1 << 20, Power: 1}, NewCloudWorker(7, 1, "")}
	for _, w := range ws {
		s.WorkerJoin(w)
	}
	s.WorkerLeave(ws[0])
	s.WorkerJoin(ws[0])
	s.WorkerJoin(ws[1]) // already attached
	if n := len(s.workers.slots); n != 3 {
		t.Fatalf("%d slots for 3 workers", n)
	}
	for i, w := range ws {
		if sl := s.workers.slot(w); sl == nil || sl.w != w || int(w.slot) >= 3 {
			t.Fatalf("worker %d (ID %d) holds slot %d", i, w.ID, w.slot)
		}
	}
	if p := s.Progress("none"); p.Workers != 0 {
		t.Fatalf("unknown batch: %+v", p)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	stranger := &Worker{ID: 5, Power: 1}
	if s.WorkerBusy(stranger) || s.Detach(stranger) != nil || s.Unpark(stranger) != nil ||
		s.workers.Contains(stranger) || (&idleSet{}).Contains(ws[0]) {
		t.Fatal("a never-seen worker answers as if it were known")
	}
	if n := len(s.workers.slots); n != 3 {
		t.Fatalf("asking about a stranger numbered it: %d slots", n)
	}

	other := newStub(eng)
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, fmt.Sprint(ws[1].ID)) {
			t.Fatalf("second server attaching worker %d: panic %q, want one naming the worker", ws[1].ID, msg)
		}
	}()
	other.WorkerJoin(ws[1])
}

// TestDispatchAllocs: a join and leave of a worker the server knows
// allocates nothing, and nor do an assignment and its result: the execution
// is a record of the frame's slab and the task's list has room for it.
func TestDispatchAllocs(t *testing.T) {
	eng := sim.NewEngine()
	s := newStub(eng)
	w := &Worker{ID: 1, Power: 1}
	if n := testing.AllocsPerRun(100, func() {
		s.WorkerJoin(w)
		s.WorkerLeave(w)
	}); n != 0 {
		t.Fatalf("join/leave of a known worker: %v allocations, want 0", n)
	}

	s.Submit(Batch{ID: "b", Tasks: []bot.Task{{ID: 0, NOps: 1}}})
	s.WorkerJoin(w)
	eng.Step() // the arrival: the worker takes the task
	eng.Step() // its result: the worker is idle again
	task := &s.Tasks("b")[0]
	if n := testing.AllocsPerRun(100, func() {
		task.SetQueued(true)
		s.Dispatch() // assigns the task to the idle worker
		eng.Step()   // the result
	}); n != 0 {
		t.Fatalf("assign + result: %v allocations, want 0", n)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestResetForgetsWorkers: a reset server keeps its worker table — the same
// pointer the workers it numbered hold — so Reset must take their numbers
// back. Each is then a new worker to the reopened server, numbered from 0,
// and free to join another server; a stale number would be served the
// previous cell's record.
func TestResetForgetsWorkers(t *testing.T) {
	eng := sim.NewEngine()
	s := newStub(eng)
	ws := []*Worker{{ID: 3, Power: 1}, {ID: 4, Power: 1}, NewCloudWorker(0, 1, "b")}
	for _, w := range ws {
		s.WorkerJoin(w)
	}
	s.Submit(Batch{ID: "b", Tasks: []bot.Task{{ID: 0, NOps: 5}, {ID: 1, NOps: 5}}})
	eng.Step() // an arrival: a worker takes the task

	s.Reset()
	eng.Reset()
	for _, w := range ws {
		if w.table != nil || w.slot != 0 {
			t.Fatalf("worker %d keeps its number %d on the reset server", w.ID, w.slot)
		}
	}
	if n := len(s.workers.slots[:cap(s.workers.slots)]); n == 0 {
		t.Fatal("the reset server dropped its worker slab")
	}
	for _, sl := range s.workers.slots[:cap(s.workers.slots)] {
		if sl != (workerSlot[workerState[struct{}, struct{}]]{}) {
			t.Fatalf("the reset worker table retains %+v", sl)
		}
	}

	s.Open(eng)
	s.WorkerJoin(ws[1])
	if ws[1].slot != 0 || s.WorkerBusy(ws[1]) || !reflect.DeepEqual(s.Progress("b"), Progress{}) {
		t.Fatalf("reopened server: worker slot %d, busy %v, batch %+v", ws[1].slot, s.WorkerBusy(ws[1]), s.Progress("b"))
	}
	if s.WorkerBusy(ws[0]) || s.Detach(ws[0]) != nil {
		t.Fatal("a worker of the last cell answers as if the reopened server knew it")
	}
	newStub(eng).WorkerJoin(ws[0]) // another server: no panic
	s.Submit(Batch{ID: "b", Tasks: []bot.Task{{ID: 7, NOps: 1}}})
	eng.Run()
	if p := s.Progress("b"); p.Size != 1 || p.Arrived != 1 || p.Workers != 1 {
		t.Fatalf("a batch resubmitted after the reset: %+v", p)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
