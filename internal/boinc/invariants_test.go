package boinc

import (
	"fmt"
	"math/rand"
	"testing"

	"spequlos/internal/bot"
	"spequlos/internal/condor"
	"spequlos/internal/middleware"
	"spequlos/internal/sim"
	"spequlos/internal/xwhep"
)

// checkedServer is a DG server whose frame checks its own dense state.
type checkedServer interface {
	middleware.Server
	CheckInvariants() error
}

// shadow is BOINC's mechanism plus the holder and returned sets the server
// used to keep per workunit, kept here from Start and Result as the server
// kept them: the reference MayDuplicate's derivation from the frame's
// executions is held to.
type shadow struct {
	*Server
	holders, returned map[*workunit]map[int]bool
}

func (sh *shadow) Start(ex *exec) {
	mark(sh.holders, ex.Task, ex.W.ID)
	sh.Server.Start(ex)
}

func (sh *shadow) Result(ex *exec) bool {
	delete(sh.holders[ex.Task], ex.W.ID)
	mark(sh.returned, ex.Task, ex.W.ID)
	return sh.Server.Result(ex)
}

func mark(set map[*workunit]map[int]bool, wu *workunit, id int) {
	if set[wu] == nil {
		set[wu] = map[int]bool{}
	}
	set[wu][id] = true
}

// newShadowed builds a BOINC server whose frame calls the mechanism through
// a shadow.
func newShadowed(eng *sim.Engine, cfg Config) (*Server, *shadow) {
	s := New(eng, cfg)
	sh := &shadow{Server: s, holders: map[*workunit]map[int]bool{}, returned: map[*workunit]map[int]bool{}}
	s.frame = middleware.NewFrame[replication, replica](eng, "BOINC", sh)
	return s, sh
}

// check holds MayDuplicate to the shadow for every incomplete workunit and
// every worker of the pool.
func (sh *shadow) check(batches []string, pool []*middleware.Worker) error {
	for _, id := range batches {
		tasks := sh.Tasks(id)
		for i := range tasks {
			wu := &tasks[i]
			if wu.Completed() {
				continue
			}
			for _, w := range pool {
				want := !(sh.holders[wu][w.ID] || sh.returned[wu][w.ID])
				if got := sh.MayDuplicate(w, wu); got != want {
					return fmt.Errorf("batch %s workunit %d worker %d: MayDuplicate %v, holders ∪ returned says %v", id, wu.Spec.ID, w.ID, got, want)
				}
			}
		}
	}
	return nil
}

// TestFrameInvariants drives seeded random sequences of joins, leaves,
// submissions (sparse task IDs, staggered arrivals), merged results and
// Reschedule through BOINC, XWHEP and Condor, and runs the frame's invariant
// checker after every event; on BOINC it also holds MayDuplicate to the
// holder and returned sets kept from Start and Result.
func TestFrameInvariants(t *testing.T) {
	models := []struct {
		name string
		new  func(*sim.Engine) (checkedServer, func([]string, []*middleware.Worker) error)
	}{
		{"BOINC", func(eng *sim.Engine) (checkedServer, func([]string, []*middleware.Worker) error) {
			s, sh := newShadowed(eng, Config{TargetNResults: 3, MinQuorum: 2, DelayBound: 400, OneResultPerWorker: true})
			return s, sh.check
		}},
		{"XWHEP", func(eng *sim.Engine) (checkedServer, func([]string, []*middleware.Worker) error) {
			return xwhep.New(eng, xwhep.Config{KeepAlivePeriod: 20, WorkerTimeout: 100}), nil
		}},
		{"CONDOR", func(eng *sim.Engine) (checkedServer, func([]string, []*middleware.Worker) error) {
			return condor.New(eng, condor.DefaultConfig()), nil
		}},
	}
	for _, m := range models {
		t.Run(m.name, func(t *testing.T) {
			events, completed := 0, 0
			for seed := int64(1); seed <= 12; seed++ {
				eng := sim.NewEngine()
				srv, extra := m.new(eng)
				n, c := driveRandom(t, seed, eng, srv, extra)
				events += n
				completed += c
			}
			if completed == 0 {
				t.Fatal("no task completed: the sequences exercise nothing")
			}
			t.Logf("%d events checked, %d tasks completed", events, completed)
		})
	}
}

// TestReusedFrameInvariants runs the sequences of TestFrameInvariants
// through one server per middleware, reset and reopened on one reset engine
// between seeds as a campaign's cell arena reuses them, with the invariant
// checker after every event. Each seed must run as it does on a new server.
func TestReusedFrameInvariants(t *testing.T) {
	type reusable interface {
		checkedServer
		Open(*sim.Engine)
		Reset()
	}
	models := []struct {
		name string
		new  func(*sim.Engine) reusable
	}{
		{"BOINC", func(eng *sim.Engine) reusable {
			return New(eng, Config{TargetNResults: 3, MinQuorum: 2, DelayBound: 400, OneResultPerWorker: true})
		}},
		{"XWHEP", func(eng *sim.Engine) reusable {
			return xwhep.New(eng, xwhep.Config{KeepAlivePeriod: 20, WorkerTimeout: 100})
		}},
		{"CONDOR", func(eng *sim.Engine) reusable { return condor.New(eng, condor.DefaultConfig()) }},
	}
	for _, m := range models {
		t.Run(m.name, func(t *testing.T) {
			eng := sim.NewEngine()
			srv := m.new(eng)
			for seed := int64(1); seed <= 12; seed++ {
				if seed > 1 {
					srv.Reset()
					eng.Reset()
					srv.Open(eng)
				}
				events, completed := driveRandom(t, seed, eng, srv, nil)
				fresh := sim.NewEngine()
				wantEvents, wantCompleted := driveRandom(t, seed, fresh, m.new(fresh), nil)
				if events != wantEvents || completed != wantCompleted || eng.Now() != fresh.Now() {
					t.Fatalf("seed %d: the reused server ran %d events, completed %d, ended at %v; a new one %d, %d, %v",
						seed, events, completed, eng.Now(), wantEvents, wantCompleted, fresh.Now())
				}
			}
		})
	}
}

// driveRandom schedules one seed's random sequence on srv, checks after
// every event, and returns the events run and the tasks completed.
func driveRandom(t *testing.T, seed int64, eng *sim.Engine, srv checkedServer, extra func([]string, []*middleware.Worker) error) (int, int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	srv.SetReschedule(rng.Intn(2) == 0)
	const horizon = 5000.0

	var batches []string
	for b := 0; b < 4; b++ {
		id := fmt.Sprintf("b%d", b)
		// Sparse IDs, as a Cloud Duplication subset has.
		ids := rng.Perm(30)[:3+rng.Intn(6)]
		tasks := make([]bot.Task, len(ids))
		for i, tid := range ids {
			tasks[i] = bot.Task{ID: tid, NOps: 50 + 450*rng.Float64(), Arrival: 200 * rng.Float64()}
		}
		eng.At(horizon/4*rng.Float64(), func() { srv.Submit(middleware.Batch{ID: id, Tasks: tasks}) })
		batches = append(batches, id)
		for k := 0; k < 2; k++ {
			tid := ids[rng.Intn(len(ids))]
			if k == 1 {
				tid = 30 + rng.Intn(5) // not in the batch
			}
			eng.At(horizon*rng.Float64(), func() { srv.MarkCompleted(id, tid, nil) })
		}
	}

	// Node workers with sparse IDs and cloud workers, some dedicated, each
	// joining and leaving at random.
	var pool []*middleware.Worker
	for i := 0; i < 8; i++ {
		pool = append(pool, &middleware.Worker{ID: i*100003 + rng.Intn(1000), Power: 0.5 + rng.Float64()})
	}
	for i := 0; i < 4; i++ {
		dedicated := ""
		if i > 0 {
			dedicated = batches[rng.Intn(len(batches))]
		}
		pool = append(pool, middleware.NewCloudWorker(i, 2, dedicated))
	}
	for _, w := range pool {
		at := 0.0
		for k := 0; k < 4; k++ {
			at += 600 * rng.Float64()
			eng.At(at, func() { srv.WorkerJoin(w) })
			at += 900 * rng.Float64()
			eng.At(at, func() { srv.WorkerLeave(w) })
		}
		if rng.Intn(2) == 0 {
			eng.At(at+100, func() { srv.WorkerJoin(w) }) // stays to the end
		}
	}

	check := func() {
		t.Helper()
		if err := srv.CheckInvariants(); err != nil {
			t.Fatalf("seed %d, t=%v: %v", seed, eng.Now(), err)
		}
		if extra != nil {
			if err := extra(batches, pool); err != nil {
				t.Fatalf("seed %d, t=%v: %v", seed, eng.Now(), err)
			}
		}
	}
	events := 0
	check()
	for eng.Now() < 4*horizon && eng.Step() {
		events++
		check()
	}
	completed := 0
	for _, id := range batches {
		completed += srv.Progress(id).Completed
	}
	return events, completed
}
