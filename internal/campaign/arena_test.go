package campaign

import (
	"encoding/json"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"spequlos/internal/core"
)

// arenaJobs are quick cells over every middleware, baseline and the three
// deployments (Reschedule, Cloud Duplication, Flat), plus serial multi-batch
// cells, which use more than one of a server's pooled batches, and cells cut
// short by their horizon with work queued and running.
func arenaJobs(t *testing.T) []Job {
	t.Helper()
	multi, short := Quick(), Quick()
	multi.Name, multi.Batches, multi.SubmitSpread = "quick-multi", 4, 1800
	short.Name, short.HorizonDays = "quick-short", 0.02
	var jobs []Job
	for _, p := range []Profile{Quick(), multi, short} {
		for _, mw := range AllMiddlewares() {
			for _, tn := range []string{"seti", "nd"} {
				sc := Scenario{Profile: p, Middleware: mw, TraceName: tn, BotClass: "SMALL"}
				jobs = append(jobs, strategyJobs(t, sc, p.Batches <= 1, "9C-C-R", "9A-G-D", "D-G-F")...)
			}
		}
	}
	return jobs
}

// runIn runs the jobs one after another in the arena, resetting it after each
// as executeOnce does, and returns each entry's JSON by job key.
func runIn(t *testing.T, a *cellArena, jobs []Job) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, j := range jobs {
		e := runCell(a, j, j.Scenario.Profile.HorizonDays*86400)
		a.reset()
		b, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		out[j.Key()] = string(b)
	}
	return out
}

// TestArenaOrderIndependent runs the same quick cells through one arena in
// ascending and in reversed key order, and each in an arena of its own: every
// entry must be byte-identical whatever ran in the arena before it.
func TestArenaOrderIndependent(t *testing.T) {
	jobs := arenaJobs(t)
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].Key() < jobs[k].Key() })
	asc := runIn(t, newArena(), jobs)
	reversed := slices.Clone(jobs)
	slices.Reverse(reversed)
	desc := runIn(t, newArena(), reversed)
	for _, j := range jobs {
		key := j.Key()
		fresh := runIn(t, newArena(), []Job{j})[key]
		if asc[key] != fresh || desc[key] != fresh {
			t.Fatalf("%s: entry depends on the arena's history\nown arena  %s\nascending  %s\nreversed   %s", key, fresh, asc[key], desc[key])
		}
	}
}

// TestArenaResetHoldsNothing runs cells of every shape through one arena
// and, after each, resets it and walks everything it still reaches, every
// slice up to its capacity: no pointer, function, map entry or string of the
// cell may remain, and no worker record may keep its number on the server —
// a reused server's worker table is the same pointer, so a worker keeping its
// table and slot would be served the previous cell's record.
func TestArenaResetHoldsNothing(t *testing.T) {
	a := newArena()
	for _, j := range arenaJobs(t) {
		runIn(t, a, []Job{j})
		if a.eng.Now() != 0 || a.eng.Executed() != 0 || a.eng.Pending() != 0 {
			t.Fatalf("%s: engine after reset: now %v, executed %d, pending %d", j.Key(), a.eng.Now(), a.eng.Executed(), a.eng.Pending())
		}
		w := arenaWalk{seen: map[uintptr]bool{}}
		w.walk("arena", reflect.ValueOf(a).Elem())
		for _, leak := range w.leaks {
			t.Errorf("%s: %s", j.Key(), leak)
		}
		if w.slabs < 15 {
			t.Fatalf("%s: the walk reached %d non-empty slabs: it is not looking inside the arena", j.Key(), w.slabs)
		}
		if t.Failed() {
			return
		}
	}
}

// arenaWalk collects what a reset arena must not hold.
type arenaWalk struct {
	seen  map[uintptr]bool
	leaks []string
	slabs int // slices with capacity, walked to it
}

// ownPointers are the arena's own structure: what a pointer held between
// cells may point to.
var ownPointers = []string{"*sim.Engine", "*boinc.Server", "*xwhep.Server", "*middleware.Frame[", "*middleware.BatchState["}

func (w *arenaWalk) leak(path, what string) {
	w.leaks = append(w.leaks, path+": "+what)
}

func (w *arenaWalk) walk(path string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return
		}
		name := v.Type().String()
		if !slices.ContainsFunc(ownPointers, func(p string) bool { return strings.HasPrefix(name, p) }) {
			w.leak(path, "holds a "+name)
			return
		}
		if !w.seen[v.Pointer()] {
			w.seen[v.Pointer()] = true
			w.walk(path, v.Elem())
		}
	case reflect.Interface:
		if !v.IsNil() {
			w.walk(path, v.Elem())
		}
	case reflect.Func, reflect.Chan, reflect.UnsafePointer:
		if !v.IsNil() {
			w.leak(path, "holds a "+v.Type().String())
		}
	case reflect.String:
		if s := v.String(); s != "" && !slices.Contains(AllMiddlewares(), s) {
			w.leak(path, "holds the string "+s)
		}
	case reflect.Map:
		if v.Len() > 0 {
			w.leak(path, "holds map entries")
		}
	case reflect.Slice:
		if v.Cap() > 0 {
			w.slabs++
		}
		v = v.Slice(0, v.Cap())
		for i := 0; i < v.Len(); i++ {
			w.walk(path+"[]", v.Index(i))
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			w.walk(path+"[]", v.Index(i))
		}
	case reflect.Struct:
		if v.Type().String() == "middleware.Worker" && !v.IsZero() {
			w.leak(path, "a worker record is not zero (its table and slot tie it to a server)")
		}
		for i := 0; i < v.NumField(); i++ {
			w.walk(path+"."+v.Type().Field(i).Name, v.Field(i))
		}
	}
}

// cellJob is one quick cell with a service: BOINC on seti, a SMALL BoT under
// 9C-C-R.
func cellJob(t testing.TB) Job {
	t.Helper()
	st, err := core.StrategyByLabel("9C-C-R")
	if err != nil {
		t.Fatal(err)
	}
	return Job{Scenario: Scenario{Profile: Quick(), Middleware: BOINC, TraceName: "seti", BotClass: "SMALL", Strategy: &st}}
}

// TestCellAllocs guards the arena: a warm quick cell allocates only what the
// arena does not hold — the BoT, the service's per-cell records, the entry.
// That was 140 objects when the arena came in; the same cell allocated 439
// before it.
func TestCellAllocs(t *testing.T) {
	j := cellJob(t)
	horizon := j.Scenario.Profile.HorizonDays * 86400
	a := newArena()
	run := func() {
		runCell(a, j, horizon)
		a.reset()
	}
	run()
	if n := testing.AllocsPerRun(20, run); n > 200 {
		t.Fatalf("a warm quick cell allocates %v objects, want at most 200", n)
	}
}

// cellSink keeps BenchmarkCell's entries alive.
var cellSink Entry

// BenchmarkCell runs one quick cell per iteration as a campaign worker does:
// B/op and allocs/op are the cell's allocation, trace cached.
func BenchmarkCell(b *testing.B) {
	j := cellJob(b)
	horizon := j.Scenario.Profile.HorizonDays * 86400
	executeOnce(j, horizon)
	b.ReportAllocs()
	for b.Loop() {
		cellSink = executeOnce(j, horizon)
	}
}
