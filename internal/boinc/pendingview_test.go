package boinc

import (
	"fmt"
	"math/rand"
	"testing"

	"spequlos/internal/bot"
	"spequlos/internal/middleware"
	"spequlos/internal/sim"
)

// scanPending is the reference FirstQueued is held to: the scan over the
// whole pending queue under the full eligibility filter, batch dedication
// included — what every worker was answered from before the per-batch view.
func scanPending(s *Server, w *middleware.Worker) *workunit {
	return s.pending.First(func(wu *workunit) bool {
		return (w.DedicatedBatch == "" || wu.Batch.Spec.ID == w.DedicatedBatch) && s.MayDuplicate(w, wu)
	})
}

// dedicatedBatch resolves, as the frame does before it asks FirstQueued, the
// batch the worker is dedicated to (nil for a free worker). Every batch of the
// scenario exists and has workunits.
func dedicatedBatch(s *Server, w *middleware.Worker) *batch {
	if w.DedicatedBatch == "" {
		return nil
	}
	return s.Tasks(w.DedicatedBatch)[0].Batch
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
		if got, want := c.s.FirstQueued(w, dedicatedBatch(c.s, w)), scanPending(c.s, w); got != want {
			c.t.Fatalf("t=%v worker %d (batch %q): the view finds %v, the scan %v",
				c.s.Eng.Now(), w.ID, w.DedicatedBatch, describe(got), describe(want))
		}
	}
}

func describe(wu *workunit) string {
	if wu == nil {
		return "nothing"
	}
	return fmt.Sprintf("%s/%d", wu.Batch.Spec.ID, wu.Spec.ID)
}

func (c *viewChecker) TaskAssigned(string, int, float64)  { c.check() }
func (c *viewChecker) TaskCompleted(string, int, float64) { c.check() }
func (c *viewChecker) BatchCompleted(string, float64)     { c.check() }

// A seeded multi-tenant run with everything that reorders the pending queue:
// 60 batches backed up behind a handful of free workers, five cloud workers
// dedicated to every fifth batch taking replicas from mid-queue (five, so
// that some stay eligible for a workunit three of them hold), Reschedule on, a delay_bound short enough that slow and departed hosts miss it (the
// workunit is queued again while its old entry still sits ahead of the
// head), and enough workunits that the queue compacts several times. The
// per-batch view must answer every worker as the whole-queue scan does.
func TestPendingViewMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		rng := rand.New(rand.NewSource(seed))
		eng := sim.NewEngine()
		s := New(eng, Config{TargetNResults: 3, MinQuorum: 2, DelayBound: 400, OneResultPerWorker: true})
		s.SetReschedule(true)
		chk := &viewChecker{t: t, s: s}
		s.AddListener(chk)

		const batches = 60
		workunits := 0
		for b := 0; b < batches; b++ {
			tasks := make([]bot.Task, 4+rng.Intn(6))
			for i := range tasks {
				tasks[i] = bot.Task{ID: i, NOps: 50 + 450*rng.Float64(), Arrival: 300 * rng.Float64()}
			}
			workunits += len(tasks)
			s.Submit(middleware.Batch{ID: fmt.Sprintf("b%02d", b), Tasks: tasks})
		}
		// away detaches the worker for a while; a stay longer than delay_bound
		// makes its replica miss the deadline.
		away := func(w *middleware.Worker, from, to float64) {
			eng.At(from, func() { s.WorkerLeave(w) })
			eng.At(to, func() { s.WorkerJoin(w) })
		}
		for i := 0; i < 6; i++ {
			w := &middleware.Worker{ID: i, Power: 1}
			chk.workers = append(chk.workers, w)
			s.WorkerJoin(w)
			from := 2000 * rng.Float64()
			away(w, from, from+100+900*rng.Float64())
		}
		seq := 0
		for b := 0; b < batches; b += 5 {
			for k := 0; k < 5; k++ {
				w := middleware.NewCloudWorker(seq, 2, fmt.Sprintf("b%02d", b))
				seq++
				chk.workers = append(chk.workers, w)
				join := 100 + 1500*rng.Float64()
				eng.At(join, func() { s.WorkerJoin(w) })
				if k%2 == 1 {
					from := join + 50 + 300*rng.Float64()
					away(w, from, from+100+900*rng.Float64())
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
		if !s.pending.Empty() {
			t.Fatalf("seed %d: workunits still pending after every batch completed", seed)
		}
		t.Logf("seed %d: %d workunits, %d comparisons", seed, workunits, chk.checks)
	}
}
