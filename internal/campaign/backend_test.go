package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spequlos/internal/cloud"
	"spequlos/internal/core"
	"spequlos/internal/middleware"
	"spequlos/internal/sim"
)

// viaSeam opens the in-process service through Job.Backend: the same QoS
// side under another key.
func viaSeam(eng *sim.Engine, primary middleware.Server, cl *cloud.SimCloud, cfg core.Config) Backend {
	return inProcess{Service: core.NewService(eng, primary, cl, cfg)}
}

// TestBackendKeyDisjoint: Job.Backend left nil keeps every key of the
// executor golden as recorded, byte for byte — so no stored entry, golden or
// bench digest moved when the field was added — and the same job with a
// backend set keys apart from all of them, so one store holds both sides of a
// cell and a result computed behind a backend never satisfies an in-process
// job.
func TestBackendKeyDisjoint(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "executor_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var recorded map[string]string
	if err := json.Unmarshal(raw, &recorded); err != nil {
		t.Fatal(err)
	}
	jobs := goldenJobs(t)
	if len(jobs) != len(recorded) {
		t.Fatalf("the golden plans %d jobs, the file records %d", len(jobs), len(recorded))
	}
	seen := map[string]bool{}
	for _, j := range jobs {
		plain := j.Key()
		if _, ok := recorded[plain]; !ok {
			t.Errorf("in-process key is not a recorded one: %s", plain)
		}
		j.Backend = viaSeam
		behind := j.Key()
		if _, ok := recorded[behind]; ok || !strings.HasPrefix(behind, plain) || behind == plain {
			t.Errorf("backend key must extend the in-process key and match no recorded one:\n in-process %s\n backend    %s", plain, behind)
		}
		if seen[behind] {
			t.Errorf("two backend jobs share the key %s", behind)
		}
		seen[behind] = true
	}
	plan := NewPlan()
	plan.Add(jobs[1], jobs[1])
	behind := jobs[1]
	behind.Backend = viaSeam
	plan.Add(behind)
	if plan.Len() != 2 {
		t.Errorf("a plan of a job, itself again and its backend twin holds %d jobs, want 2", plan.Len())
	}
}

// TestBackendSeamIsTransparent: the default backend opened through the seam
// yields the result the executor yields without it, so the seam itself adds
// nothing to a cell.
func TestBackendSeamIsTransparent(t *testing.T) {
	for _, j := range tinyJobs(tiny())[:4] {
		if j.Scenario.Strategy == nil {
			continue
		}
		want := Execute(j)
		j.Backend = viaSeam
		got := Execute(j)
		if got.Err != "" || got.Key == want.Key {
			t.Fatalf("seam run: err %q, key %s", got.Err, got.Key)
		}
		if a, b := mustJSON(t, want.Result), mustJSON(t, got.Result); a != b {
			t.Errorf("result moved behind the seam:\n direct %s\n seam   %s", a, b)
		}
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// failing is the in-process backend with a registration that fails.
type failing struct {
	Backend
	err error
}

func (f *failing) Register(id, _ string, _ int, _ core.Tier, _ float64, _ middleware.Server) {
	f.err = errors.New("boom registering " + id)
}
func (f *failing) Submit(srv middleware.Server, b middleware.Batch) {
	if f.err == nil {
		f.Backend.Submit(srv, b)
	}
}
func (f *failing) Err() error { return f.err }

// TestBackendFailureIsData: a backend failure lands on the entry instead of
// panicking, stops the cell at the first one (no event runs, no horizon
// retry), reaches Progress like any finished job, and is never served as
// cached: the next run of the same store executes the job again.
func TestBackendFailureIsData(t *testing.T) {
	opened := 0
	st := core.DefaultStrategy()
	job := Job{
		Scenario: Scenario{Profile: tiny(), Middleware: XWHEP, TraceName: "seti", BotClass: "SMALL", Strategy: &st},
		Backend: func(eng *sim.Engine, primary middleware.Server, cl *cloud.SimCloud, cfg core.Config) Backend {
			opened++
			return &failing{Backend: viaSeam(eng, primary, cl, cfg)}
		},
	}
	e := Execute(job)
	if !strings.Contains(e.Err, "boom registering") || e.Result.Completed || e.Result.CompletionTime != 0 {
		t.Fatalf("entry of a failed backend: %+v", e)
	}
	if opened != 1 || e.Result.Events != 0 {
		t.Errorf("a failed cell was opened %d times and ran %d events, want 1 and 0", opened, e.Result.Events)
	}

	store := NewResultStore()
	for run := 1; run <= 2; run++ {
		c := New(tiny(), job, Job{Scenario: job.Scenario})
		reported := 0
		c.Progress = func(ev Event) {
			if ev.Key == job.Key() && !ev.Cached {
				reported++
			}
		}
		stats, err := c.Run(context.Background(), store)
		if err != nil {
			t.Fatal(err)
		}
		// The healthy in-process twin is cached on the second run; the failed
		// entry is in the store for the reader, and runs again.
		if wantExec := 3 - run; stats.Executed != wantExec || reported != 1 {
			t.Errorf("run %d: executed %d (want %d), failed job reported %d times", run, stats.Executed, wantExec, reported)
		}
		if got, ok := store.Get(job.Key()); !ok || got.Err == "" {
			t.Errorf("run %d: failed entry not readable from the store: %+v", run, got)
		}
	}
}

// TestBackendRefusals: the two jobs no backend can serve are refused by the
// executor, as an error on the entry that says why.
func TestBackendRefusals(t *testing.T) {
	st := core.DefaultStrategy()
	sc := Scenario{Profile: Stress(), Middleware: XWHEP, TraceName: "seti", BotClass: "SMALL", Strategy: &st}
	if e := Execute(Job{Scenario: sc, Backend: viaSeam}); !strings.Contains(e.Err, "stress") || !strings.Contains(e.Err, "sharded-kernel model") {
		t.Errorf("sharded cell behind a backend: %+v", e)
	}
	sc.Profile, sc.Strategy = tiny(), nil
	if e := Execute(Job{Scenario: sc, Backend: viaSeam}); !strings.Contains(e.Err, "baseline") {
		t.Errorf("baseline behind a backend: %+v", e)
	}
	if err := (Job{Scenario: sc}).Refused(); err != nil {
		t.Errorf("in-process baseline refused: %v", err)
	}
}
