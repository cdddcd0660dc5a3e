package campaign

import (
	"context"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"sync"
	"time"

	"spequlos/internal/cloud"
	"spequlos/internal/core"
	"spequlos/internal/middleware"
	"spequlos/internal/sim"
)

// Job is one unique simulation to execute: a scenario, optionally with a
// non-standard service configuration (the knob the ablation sweeps turn).
// Jobs are identified by a content key; planning the same job twice — for
// example because two figures consume the same cell — executes it once.
type Job struct {
	Scenario Scenario
	// Variant is the display label of a non-standard service configuration
	// (recorded in the store entry); the key derives from the actual
	// configuration, so two variants configured identically — or a variant
	// configured exactly like a plain strategy run — execute once.
	Variant string
	// Config overrides the SpeQuloS service configuration for variant jobs.
	Config *core.Config
	// CreditFraction overrides Profile.CreditFraction for variant jobs.
	CreditFraction *float64
	// KeepSeries records the full completion series in the store entry
	// (needed by Figure 1). Plans merge this flag across duplicate jobs.
	KeepSeries bool
	// Backend, when non-nil, opens the cell's QoS side in place of the
	// in-process core.Service: on the service's engine, beside the cell's
	// first DG server, with its simulated cloud and configuration. The one
	// other implementation is emul.HTTPStack, the deployable stack on the
	// cell's virtual clock. The function's name joins the key, so both sides
	// of a cell fit in one store and neither is ever served for the other.
	Backend func(*sim.Engine, middleware.Server, *cloud.SimCloud, core.Config) Backend
}

// Key is the content key identifying the simulation: profile (name plus
// the simulation-affecting scale parameters, so a resumed store never
// serves results computed under different parameters), scenario
// coordinates, effective service configuration and seed. Two jobs with
// equal keys produce identical entries.
func (j Job) Key() string {
	sc := j.Scenario
	p := sc.Profile
	// Multi-batch cells append their concurrency parameters; single-batch
	// keys keep the historical shape so saved stores stay resumable.
	multi := ""
	if p.Batches > 1 {
		multi = fmt.Sprintf(",nb%d,ss%g", p.Batches, p.SubmitSpread)
		// Tier arbitration changes decisions, so tiered cells key on it;
		// the shard count does not (deterministic merge) and stays out.
		if p.Tiered {
			multi += fmt.Sprintf(",tiered,fc%d", p.FleetCap)
		}
		// The sharded-kernel MODEL (per-batch servers + trace partitions)
		// changes results and keys on it; KernelShards is execution-only
		// (byte-identical at any value) and stays out. A single BoT has
		// no sub-batch to partition by, so the flag does nothing there
		// and stays out of its key.
		if p.ShardedKernel {
			multi += ",skernel"
		}
	}
	key := fmt.Sprintf("%s@bs%g,pc%d,h%g,cf%g%s|%s|%s|%s|%d|%s|%d",
		p.Name, p.BotScale, p.PoolCap, p.HorizonDays, p.CreditFraction, multi,
		sc.Middleware, sc.TraceName, sc.BotClass, sc.Offset,
		j.configKey(), sc.Seed())
	// An in-process job keeps the historical key, byte for byte.
	if j.Backend != nil {
		key += "|qos=" + runtime.FuncForPC(reflect.ValueOf(j.Backend).Pointer()).Name()
	}
	return key
}

// Refused reports why the executor will not run the job, nil when it will.
// Both refusals are about a Backend, which serves ONE DG server's batches: a
// baseline has no QoS side to serve, and a sharded-kernel cell is another
// model — one server per batch, each on its own slice of the trace's nodes —
// so a backend run of it could only disagree with the in-process one.
func (j Job) Refused() error {
	p := j.Scenario.Profile
	switch {
	case j.Backend == nil:
	case j.Config == nil && j.Scenario.Strategy == nil:
		return fmt.Errorf("campaign: %s is a baseline: a QoS backend needs a strategy to serve", j.Scenario.BotID())
	case p.Sharded():
		return fmt.Errorf("campaign: the %s profile is the sharded-kernel model (every batch on its own DG server over 1/%d of the trace's nodes); a QoS backend serves one server over the whole pool, so the run would be a different cell: use crowd, or a serial multi-batch profile", p.Name, p.Batches)
	}
	return nil
}

// configKey canonicalizes the effective SpeQuloS configuration of the job.
// Strategy labels are not injective — two completion thresholds can share
// a code — so the key includes the full trigger and sizing values; and a
// variant job configured exactly like a plain strategy run keys (and
// executes) as that run.
func (j Job) configKey() string {
	st := j.Scenario.Strategy
	mp := DefaultMonitorPeriod
	cf := j.Scenario.Profile.CreditFraction
	if j.Config != nil {
		st = &j.Config.Strategy
		mp = j.Config.MonitorPeriod
		if j.CreditFraction != nil {
			cf = *j.CreditFraction
		}
	}
	if st == nil {
		return "" // baseline: no SpeQuloS service
	}
	return fmt.Sprintf("%s<%+v/%+v>,mp%g,cf%g", st.Label(), st.Trigger, st.Sizing, mp, cf)
}

// Plan is an ordered, deduplicated set of jobs. Adding a job whose key is
// already planned merges its KeepSeries need instead of queueing a second
// execution.
type Plan struct {
	jobs  []Job
	index map[string]int
}

// NewPlan returns an empty plan.
func NewPlan() *Plan { return &Plan{index: map[string]int{}} }

// Add plans jobs, deduplicating by content key.
func (p *Plan) Add(jobs ...Job) {
	if p.index == nil {
		p.index = map[string]int{}
	}
	for _, j := range jobs {
		key := j.Key()
		if i, ok := p.index[key]; ok {
			if j.KeepSeries {
				p.jobs[i].KeepSeries = true
			}
			continue
		}
		p.index[key] = len(p.jobs)
		p.jobs = append(p.jobs, j)
	}
}

// Jobs returns the planned jobs in insertion order.
func (p *Plan) Jobs() []Job {
	out := make([]Job, len(p.jobs))
	copy(out, p.jobs)
	return out
}

// Len returns the number of unique jobs planned.
func (p *Plan) Len() int { return len(p.jobs) }

// Event is one streaming progress notification: a job finished (or was
// served from the store).
type Event struct {
	Key    string
	Done   int // jobs finished so far, including this one
	Total  int // unique jobs planned
	Cached bool
	Result Result
}

// Stats summarizes a campaign run.
type Stats struct {
	Planned  int           // unique jobs planned
	Executed int           // jobs actually simulated
	Cached   int           // jobs served from the store (resume)
	Elapsed  time.Duration // wall clock of the run
}

// Campaign executes a plan of unique jobs on a bounded worker pool and
// fills a ResultStore. Jobs already present in the store are not re-run,
// which is what makes save→load→run resumption work.
type Campaign struct {
	// Profile provides the parallelism bound (Profile.Workers).
	Profile Profile
	// Plan holds the unique jobs; use NewPlan().Add(...) or assign Jobs.
	Plan *Plan
	// Progress, when non-nil, receives one event per finished job. Events
	// stream while the campaign runs; callbacks are serialized.
	Progress func(Event)
}

// New builds a campaign over the given jobs.
func New(p Profile, jobs ...Job) *Campaign {
	plan := NewPlan()
	plan.Add(jobs...)
	return &Campaign{Profile: p, Plan: plan}
}

// Run executes every planned job not already present in store, bounded by
// the profile's parallelism, until done or ctx is cancelled. Partial
// results stay in the store, so a cancelled campaign can be resumed by
// running it again with the same store.
func (c *Campaign) Run(ctx context.Context, store *ResultStore) (Stats, error) {
	start := time.Now()
	if c.Profile.TraceBudgetBytes > 0 {
		SetTraceBudget(c.Profile.TraceBudgetBytes)
	}
	if c.Plan == nil {
		c.Plan = NewPlan()
	}
	jobs := c.Plan.Jobs()
	stats := Stats{Planned: len(jobs)}

	// Serve cached entries first: a stored entry satisfies a job unless it
	// records a backend failure (the job runs again), or the job needs the
	// completion series and the entry lacks it.
	var pending []Job
	done := 0
	for _, j := range jobs {
		e, ok := store.Get(j.Key())
		if ok && e.Err == "" && (!j.KeepSeries || len(e.Series) > 0) {
			stats.Cached++
			done++
			if c.Progress != nil {
				c.Progress(Event{Key: e.Key, Done: done, Total: len(jobs), Cached: true, Result: e.Result})
			}
			continue
		}
		pending = append(pending, j)
	}

	workers := min(c.Profile.Workers(), len(pending))

	jobCh := make(chan Job)
	var wg sync.WaitGroup
	var mu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobCh {
				e := Execute(j)
				store.Put(e)
				mu.Lock()
				stats.Executed++
				done++
				if c.Progress != nil {
					c.Progress(Event{Key: e.Key, Done: done, Total: len(jobs), Result: e.Result})
				}
				mu.Unlock()
			}
		}()
	}
feed:
	for _, j := range pending {
		select {
		case jobCh <- j:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobCh)
	wg.Wait()
	stats.Elapsed = time.Since(start)
	return stats, ctx.Err()
}

// LogProgress returns a Progress callback printing one line per finished
// job to w — the shared CLI progress stream.
func LogProgress(w io.Writer) func(Event) {
	return func(ev Event) {
		state := "done"
		if ev.Cached {
			state = "cached"
		}
		fmt.Fprintf(w, "%s %s (%d/%d)\n", state, ev.Key, ev.Done, ev.Total)
	}
}
