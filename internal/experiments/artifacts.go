package experiments

import (
	"context"
	"fmt"
	"time"

	"spequlos/internal/campaign"
	"spequlos/internal/core"
)

// table2Days is the trace length Table 2's statistics are measured over.
const table2Days = 7

// ArtifactOptions scopes one full regeneration of the paper's evaluation.
type ArtifactOptions struct {
	// Spec restricts the matrix; its Strategies drive Figs 4/5. The default
	// strategy (9C-C-R) is always planned — Figs 6/7 and Table 4 need it.
	Spec MatrixSpec
	// Ablations adds the credit-fraction, monitor-period and trigger sweeps.
	Ablations bool
	// Comparison adds the three-middleware baseline comparison.
	Comparison bool
	// Table2Seed seeds the trace-statistics validation (over table2Days).
	Table2Seed uint64
	// Table5Seed seeds the EDGI deployment simulation.
	Table5Seed uint64
	// StreamMatrix skips materializing Artifacts.Matrix: the store is
	// validated per cell (ValidateSpec) and every figure/table streams
	// straight from it, so derivation memory does not grow with the matrix.
	// Paper-scale (`full`) campaigns and the bench CLI set it; the default
	// keeps Artifacts.Matrix populated for consumers that read it.
	StreamMatrix bool
	// Store, when non-nil, is reused across runs: entries already present
	// are not re-simulated (resume).
	Store *campaign.ResultStore
	// Progress receives streaming per-job events.
	Progress func(campaign.Event)
}

func (o ArtifactOptions) withDefaults() ArtifactOptions {
	hasDefault := false
	defaultLabel := core.DefaultStrategy().Label()
	for _, st := range o.Spec.Strategies {
		if st.Label() == defaultLabel {
			hasDefault = true
		}
	}
	if !hasDefault {
		o.Spec.Strategies = append(o.Spec.Strategies, core.DefaultStrategy())
	}
	if o.Table2Seed == 0 {
		o.Table2Seed = 20260611
	}
	if o.Table5Seed == 0 {
		o.Table5Seed = 20260611
	}
	return o
}

// Artifacts is every figure and table of the evaluation, derived from one
// campaign.
type Artifacts struct {
	Profile Profile
	Matrix  Matrix

	Figure1 Figure1
	Figure2 Figure2
	Table1  Table1
	Table2  []Table2Row
	Figure4 Figure4
	Figure5 Figure5
	Figure6 Figure6
	Figure7 Figure7
	Table4  Table4
	Table5  Table5

	// Ablation sweeps (when ArtifactOptions.Ablations).
	CreditSweep  []AblationPoint
	PeriodSweep  []AblationPoint
	TriggerSweep []AblationPoint
	// Comparison rows (when ArtifactOptions.Comparison).
	Comparison []MiddlewareComparisonRow

	// Timings records per-artifact derivation wall-clock (bench/ reports
	// them as experiments.derive_s, table2_s and table5_s).
	Timings []ArtifactTiming
}

// ArtifactTiming is one artifact's derivation wall-clock.
type ArtifactTiming struct {
	Name    string        `json:"name"`
	Elapsed time.Duration `json:"elapsed_ns"`
}

// DefaultStrategyLabel is the strategy Figs 6/7 and Table 4 report on.
func (a Artifacts) DefaultStrategyLabel() string { return core.DefaultStrategy().Label() }

// PlanArtifacts plans every simulation job the artifact set needs: the full
// matrix (baselines + strategies), the Fig 1 curve, and optionally the
// ablation variants and the middleware comparison. Overlapping consumers —
// Fig 1's cell is a matrix baseline, ablation baselines are matrix cells —
// dedupe to a single execution via the job key.
func PlanArtifacts(p Profile, opts ArtifactOptions) *campaign.Plan {
	opts = opts.withDefaults()
	plan := campaign.NewPlan()
	plan.Add(opts.Spec.Jobs(p)...)
	plan.Add(Figure1Job(p))
	if opts.Ablations {
		plan.Add(ablationJobs(p, creditSettings())...)
		plan.Add(ablationJobs(p, periodSettings(p))...)
		plan.Add(ablationJobs(p, triggerSettings(p))...)
	}
	if opts.Comparison {
		plan.Add(ComparisonJobs(p)...)
	}
	return plan
}

// DeriveArtifacts builds every figure and table from an already-executed
// store. It runs no scenario simulations: Tables 2 and 5 (the trace
// generator validation and the EDGI deployment) are independent
// simulations and execute here.
func DeriveArtifacts(store *campaign.ResultStore, p Profile, opts ArtifactOptions) (Artifacts, error) {
	opts = opts.withDefaults()
	a := Artifacts{Profile: p}
	timed := func(name string, build func() error) error {
		start := time.Now()
		if err := build(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		a.Timings = append(a.Timings, ArtifactTiming{Name: name, Elapsed: time.Since(start)})
		return nil
	}

	// The matrix step is the completeness gate either way: streaming
	// derivations validate the store per cell without retaining the pairs,
	// the default additionally materializes the Matrix view for consumers
	// (the golden tests pin its JSON).
	if err := timed("matrix", func() (err error) {
		if opts.StreamMatrix {
			return ValidateSpec(store, p, opts.Spec)
		}
		a.Matrix, err = MatrixFrom(store, p, opts.Spec)
		return
	}); err != nil {
		return a, err
	}
	defaultLabel := a.DefaultStrategyLabel()
	type step struct {
		name  string
		build func() error
	}
	steps := []step{
		{"figure1", func() (err error) { a.Figure1, err = Figure1From(store, p); return }},
		{"figure2", func() (err error) { a.Figure2, err = Figure2From(store, p, opts.Spec); return }},
		{"table1", func() (err error) { a.Table1, err = Table1From(store, p, opts.Spec); return }},
		{"table2", func() error { a.Table2 = BuildTable2(table2Days, opts.Table2Seed); return nil }},
		{"figure4", func() (err error) { a.Figure4, err = Figure4From(store, p, opts.Spec); return }},
		{"figure5", func() (err error) { a.Figure5, err = Figure5From(store, p, opts.Spec); return }},
		{"figure6", func() (err error) { a.Figure6, err = Figure6From(store, p, opts.Spec, defaultLabel); return }},
		{"figure7", func() (err error) { a.Figure7, err = Figure7From(store, p, opts.Spec, defaultLabel); return }},
		{"table4", func() (err error) { a.Table4, err = Table4From(store, p, opts.Spec, defaultLabel); return }},
		{"table5", func() error {
			a.Table5 = BuildTable5(opts.Table5Seed)
			return nil
		}},
	}
	if opts.Ablations {
		steps = append(steps,
			step{"ablation-credits", func() (err error) {
				a.CreditSweep, err = CreditFractionSweepFrom(store, p)
				return
			}},
			step{"ablation-period", func() (err error) {
				a.PeriodSweep, err = MonitorPeriodSweepFrom(store, p)
				return
			}},
			step{"ablation-trigger", func() (err error) {
				a.TriggerSweep, err = TriggerAblationFrom(store, p)
				return
			}},
		)
	}
	if opts.Comparison {
		steps = append(steps, step{"comparison", func() (err error) {
			a.Comparison, err = CompareMiddlewareFrom(store, p)
			return
		}})
	}
	for _, s := range steps {
		if err := timed(s.name, s.build); err != nil {
			return a, err
		}
	}
	return a, nil
}

// BuildArtifacts is the one-campaign pipeline: plan every job, execute each
// unique one exactly once, derive every artifact from the shared store.
func BuildArtifacts(ctx context.Context, p Profile, opts ArtifactOptions) (Artifacts, campaign.Stats, error) {
	opts = opts.withDefaults()
	store := opts.Store
	if store == nil {
		store = campaign.NewResultStore()
	}
	c := &campaign.Campaign{Profile: p, Plan: PlanArtifacts(p, opts), Progress: opts.Progress}
	stats, err := c.Run(ctx, store)
	if err != nil {
		return Artifacts{}, stats, err
	}
	a, err := DeriveArtifacts(store, p, opts)
	return a, stats, err
}
