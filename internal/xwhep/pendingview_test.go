package xwhep

import (
	"fmt"
	"math/rand"
	"testing"

	"spequlos/internal/bot"
	"spequlos/internal/middleware"
	"spequlos/internal/sim"
)

// scanQueued is the reference FirstQueued is held to: the scan over both
// whole queues under the dedication filter — what every worker was answered
// from before the per-batch views.
func scanQueued(s *Server, w *middleware.Worker) *xtask {
	match := func(t *xtask) bool {
		return w.DedicatedBatch == "" || t.Batch.Spec.ID == w.DedicatedBatch
	}
	if t := s.priority.First(match); t != nil {
		return t
	}
	return s.queue.First(match)
}

// viewChecker compares the two answers for every worker it knows, after each
// event and, as a listener, in the middle of a dispatch round.
type viewChecker struct {
	t       *testing.T
	s       *Server
	workers []*middleware.Worker
	checks  int
}

func (c *viewChecker) check() {
	c.t.Helper()
	for _, w := range c.workers {
		c.checks++
		if got, want := c.s.FirstQueued(w, dedicatedBatch(c.s, w)), scanQueued(c.s, w); got != want {
			c.t.Fatalf("t=%v worker %d (batch %q): the views find %v, the scan %v",
				c.s.Eng.Now(), w.ID, w.DedicatedBatch, describe(got), describe(want))
		}
	}
}

// dedicatedBatch resolves, as the frame does before it asks FirstQueued, the
// batch the worker is dedicated to (nil for a free worker). Every batch of the
// scenario exists and has tasks.
func dedicatedBatch(s *Server, w *middleware.Worker) *batch {
	if w.DedicatedBatch == "" {
		return nil
	}
	return s.Tasks(w.DedicatedBatch)[0].Batch
}

func describe(t *xtask) string {
	if t == nil {
		return "nothing"
	}
	return fmt.Sprintf("%s/%d", t.Batch.Spec.ID, t.Spec.ID)
}

func (c *viewChecker) TaskAssigned(string, int, float64)  { c.check() }
func (c *viewChecker) TaskCompleted(string, int, float64) { c.check() }
func (c *viewChecker) BatchCompleted(string, float64)     { c.check() }

// A seeded multi-tenant run under both parameter sets — XWHEP's, which
// requeues a lost task into the priority queue, and Condor's, which requeues
// it behind the tasks waiting, its old entry still ahead of the head. 60
// batches back up behind a handful of free workers; three cloud workers
// dedicated to every fourth batch take tasks from mid-queue with Reschedule
// on, and two of the three go away long enough to be detected; the queue
// compacts several times. The per-batch views must answer every worker as
// the whole-queue scan does.
func TestPendingViewMatchesScan(t *testing.T) {
	models := []Model{
		{Name: "XWHEP", DetectDelay: 930, RequeueFirst: true},
		{Name: "CONDOR", DetectDelay: 150, CheckpointPeriod: 900},
	}
	for _, m := range models {
		t.Run(m.Name, func(t *testing.T) {
			for seed := int64(1); seed <= 2; seed++ {
				pendingViewScenario(t, m, seed)
			}
		})
	}
}

func pendingViewScenario(t *testing.T, m Model, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	eng := sim.NewEngine()
	s := NewModel(eng, m)
	s.SetReschedule(true)
	chk := &viewChecker{t: t, s: s}
	s.AddListener(chk)

	const batches = 60
	total := 0
	for b := 0; b < batches; b++ {
		tasks := make([]bot.Task, 6+rng.Intn(10))
		for i := range tasks {
			tasks[i] = bot.Task{ID: i, NOps: 50 + 450*rng.Float64(), Arrival: 300 * rng.Float64()}
		}
		total += len(tasks)
		s.Submit(middleware.Batch{ID: fmt.Sprintf("b%02d", b), Tasks: tasks})
	}
	away := func(w *middleware.Worker, from, to float64) {
		eng.At(from, func() { s.WorkerLeave(w) })
		eng.At(to, func() { s.WorkerJoin(w) })
	}
	for i := 0; i < 6; i++ {
		w := &middleware.Worker{ID: i, Power: 1}
		chk.workers = append(chk.workers, w)
		s.WorkerJoin(w)
		from := 4000 * rng.Float64()
		away(w, from, from+m.DetectDelay+600*rng.Float64())
	}
	seq := 0
	for b := 0; b < batches; b += 4 {
		for k := 0; k < 3; k++ {
			w := middleware.NewCloudWorker(seq, 1, fmt.Sprintf("b%02d", b))
			seq++
			chk.workers = append(chk.workers, w)
			join := 100 + 1500*rng.Float64()
			eng.At(join, func() { s.WorkerJoin(w) })
			if k > 0 {
				from := join + 20 + 200*rng.Float64()
				away(w, from, from+m.DetectDelay+600*rng.Float64())
			}
		}
	}

	for eng.Step() {
		chk.check()
	}
	for b := 0; b < batches; b++ {
		if id := fmt.Sprintf("b%02d", b); !s.Done(id) {
			t.Fatalf("seed %d: batch %s did not complete", seed, id)
		}
	}
	if !s.priority.Empty() || !s.queue.Empty() {
		t.Fatalf("seed %d: tasks still queued after every batch completed", seed)
	}
	t.Logf("seed %d: %d tasks, %d comparisons", seed, total, chk.checks)
}
