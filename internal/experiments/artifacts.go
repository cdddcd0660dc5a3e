package experiments

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"path"
	"slices"
	"strings"
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
	// Table5Seed seeds the EDGI deployment's two cells (Table5Jobs): it is
	// part of their profile name, so of their keys.
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
	def := core.DefaultStrategy()
	if !slices.ContainsFunc(o.Spec.Strategies, func(st core.Strategy) bool { return st.Label() == def.Label() }) {
		o.Spec.Strategies = append(o.Spec.Strategies, def)
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

	// Timings records per-artifact derivation wall-clock in table order
	// (bench/ reports them as experiments.derive_s, table2_s and table5_s);
	// Files lists the files of the artifacts it names.
	Timings []ArtifactTiming
}

// ArtifactTiming is one artifact's derivation wall-clock.
type ArtifactTiming struct {
	Name    string        `json:"name"`
	Elapsed time.Duration `json:"elapsed_ns"`
}

// artifact is one entry of the artifact table: the campaign jobs one figure
// or table needs, its derivation into Artifacts and the files it writes.
type artifact struct {
	name   string                                        // file stem and Timings name
	when   func(ArtifactOptions) bool                    // the option that adds it; nil: always
	jobs   func(Profile, ArtifactOptions) []campaign.Job // nil: it reads jobs planned above
	derive func(*Artifacts, source) error                // fills its field of Artifacts
	text   func(Artifacts) string                        // name.txt, also in summary.txt; nil: none
	more   func(Artifacts) []File                        // Figure 2's CSV, the charts; named by suffix
}

// planned reports whether opts asks for the artifact.
func (art artifact) planned(opts ArtifactOptions) bool { return art.when == nil || art.when(opts) }

// source is what a derivation reads: the executed store, the campaign's
// scope and the strategy Figs 6/7 and Table 4 report on.
type source struct {
	store *campaign.ResultStore
	p     Profile
	ArtifactOptions
	label string
}

// artifacts is the artifact table: every figure and table of the
// evaluation, in the order PlanArtifacts plans their jobs, DeriveArtifacts
// derives them (and records their Timings) and Files lists their files.
var artifacts = []artifact{
	{
		// The matrix is the completeness gate either way: streaming
		// derivations validate the store per cell without retaining the
		// pairs, the default additionally materializes the Matrix view for
		// consumers (the golden tests pin its JSON).
		name: "matrix",
		jobs: func(p Profile, o ArtifactOptions) []campaign.Job { return o.Spec.Jobs(p) },
		derive: func(a *Artifacts, s source) (err error) {
			if s.StreamMatrix {
				return ValidateSpec(s.store, s.p, s.Spec)
			}
			a.Matrix, err = MatrixFrom(s.store, s.p, s.Spec)
			return
		},
	},
	{
		name:   "figure1",
		jobs:   func(p Profile, _ ArtifactOptions) []campaign.Job { return []campaign.Job{Figure1Job(p)} },
		derive: func(a *Artifacts, s source) (err error) { a.Figure1, err = Figure1From(s.store, s.p); return },
		text:   func(a Artifacts) string { return a.Figure1.Render() },
		more:   func(a Artifacts) []File { return []File{svg("", Figure1Chart(a.Figure1))} },
	},
	{
		name:   "figure2",
		derive: func(a *Artifacts, s source) (err error) { a.Figure2, err = Figure2From(s.store, s.p, s.Spec); return },
		text:   func(a Artifacts) string { return a.Figure2.Render() },
		more: func(a Artifacts) []File {
			return []File{{Name: ".csv", text: a.Figure2.csv()}, svg("", Figure2Chart(a.Figure2))}
		},
	},
	{
		name:   "table1",
		derive: func(a *Artifacts, s source) (err error) { a.Table1, err = Table1From(s.store, s.p, s.Spec); return },
		text:   func(a Artifacts) string { return a.Table1.Render() },
	},
	{
		name:   "table2",
		derive: func(a *Artifacts, s source) error { a.Table2 = BuildTable2(table2Days, s.Table2Seed); return nil },
		text:   func(a Artifacts) string { return RenderTable2(a.Table2) },
	},
	{
		name:   "figure4",
		derive: func(a *Artifacts, s source) (err error) { a.Figure4, err = Figure4From(s.store, s.p, s.Spec); return },
		text:   func(a Artifacts) string { return a.Figure4.Render() },
		more: func(a Artifacts) (out []File) {
			for _, deploy := range []string{"F", "R", "D"} {
				out = append(out, svg(strings.ToLower(deploy), Figure4Chart(a.Figure4, deploy)))
			}
			return out
		},
	},
	{
		name:   "figure5",
		derive: func(a *Artifacts, s source) (err error) { a.Figure5, err = Figure5From(s.store, s.p, s.Spec); return },
		text:   func(a Artifacts) string { return a.Figure5.Render() },
		more:   func(a Artifacts) []File { return []File{svg("", Figure5Chart(a.Figure5))} },
	},
	{
		name: "figure6",
		derive: func(a *Artifacts, s source) (err error) {
			a.Figure6, err = Figure6From(s.store, s.p, s.Spec, s.label)
			return
		},
		text: func(a Artifacts) string { return a.Figure6.Render() },
		more: func(a Artifacts) (out []File) {
			for _, mw := range Middlewares() {
				for _, bc := range BotClasses() {
					if len(a.Figure6.Cells[mw][bc]) > 0 {
						out = append(out, svg("-"+strings.ToLower(mw)+"-"+strings.ToLower(bc), Figure6Chart(a.Figure6, mw, bc)))
					}
				}
			}
			return out
		},
	},
	{
		name: "figure7",
		derive: func(a *Artifacts, s source) (err error) {
			a.Figure7, err = Figure7From(s.store, s.p, s.Spec, s.label)
			return
		},
		text: func(a Artifacts) string { return a.Figure7.Render() },
		more: func(a Artifacts) (out []File) {
			for _, mw := range Middlewares() {
				out = append(out, svg("-"+strings.ToLower(mw), Figure7Chart(a.Figure7, mw)))
			}
			return out
		},
	},
	{
		name: "table4",
		derive: func(a *Artifacts, s source) (err error) {
			a.Table4, err = Table4From(s.store, s.p, s.Spec, s.label)
			return
		},
		text: func(a Artifacts) string { return a.Table4.Render() },
	},
	{
		name:   "table5",
		jobs:   func(_ Profile, o ArtifactOptions) []campaign.Job { return Table5Jobs(o.Table5Seed) },
		derive: func(a *Artifacts, s source) (err error) { a.Table5, err = Table5From(s.store, s.Table5Seed); return },
		text:   func(a Artifacts) string { return a.Table5.Render() },
	},
	ablation("ablation-credits", "Ablation — credit provisioning fraction", creditSettings,
		func(a *Artifacts) *[]AblationPoint { return &a.CreditSweep }),
	ablation("ablation-period", "Ablation — monitoring period", periodSettings,
		func(a *Artifacts) *[]AblationPoint { return &a.PeriodSweep }),
	ablation("ablation-trigger", "Ablation — trigger strategy", triggerSettings,
		func(a *Artifacts) *[]AblationPoint { return &a.TriggerSweep }),
	{
		name: "comparison",
		when: func(o ArtifactOptions) bool { return o.Comparison },
		jobs: func(p Profile, _ ArtifactOptions) []campaign.Job { return comparisonSpec.Jobs(p) },
		derive: func(a *Artifacts, s source) (err error) {
			a.Comparison, err = CompareMiddlewareFrom(s.store, s.p)
			return
		},
		text: func(a Artifacts) string { return RenderMiddlewareComparison(a.Comparison) },
	},
}

// ablation declares one design-choice sweep (ablation.go): its baselines and
// variants, their aggregate and its table.
func ablation(name, title string, settings func(Profile) []ablationSetting, sweep func(*Artifacts) *[]AblationPoint) artifact {
	return artifact{
		name: name,
		when: func(o ArtifactOptions) bool { return o.Ablations },
		jobs: func(p Profile, _ ArtifactOptions) []campaign.Job { return ablationJobs(p, settings(p)) },
		derive: func(a *Artifacts, s source) (err error) {
			*sweep(a), err = ablationFrom(s.store, s.p, settings(s.p))
			return
		},
		text: func(a Artifacts) string { return RenderAblation(title, *sweep(&a)) },
	}
}

// PlanArtifacts plans every simulation job the artifact set needs: the full
// matrix (baselines + strategies), the Fig 1 curve, and optionally the
// ablation variants and the middleware comparison. Overlapping consumers —
// Fig 1's cell is a matrix baseline, ablation baselines are matrix cells —
// dedupe to a single execution via the job key.
func PlanArtifacts(p Profile, opts ArtifactOptions) *campaign.Plan {
	opts = opts.withDefaults()
	plan := campaign.NewPlan()
	for _, art := range artifacts {
		if art.jobs != nil && art.planned(opts) {
			plan.Add(art.jobs(p, opts)...)
		}
	}
	return plan
}

// DeriveArtifacts builds every figure and table from an already-executed
// store, Table 5's EDGI cells included. The one thing it simulates is Table
// 2's trace-generator validation, which measures traces rather than running
// a cell; every other artifact is a pure function of the store.
func DeriveArtifacts(store *campaign.ResultStore, p Profile, opts ArtifactOptions) (Artifacts, error) {
	opts = opts.withDefaults()
	a := Artifacts{Profile: p}
	src := source{store: store, p: p, ArtifactOptions: opts, label: core.DefaultStrategy().Label()}
	for _, art := range artifacts {
		if !art.planned(opts) {
			continue
		}
		start := time.Now()
		if err := art.derive(&a, src); err != nil {
			return a, fmt.Errorf("%s: %w", art.name, err)
		}
		a.Timings = append(a.Timings, ArtifactTiming{Name: art.name, Elapsed: time.Since(start)})
	}
	return a, nil
}

// File is one file of the artifact set: an artifact's text, Figure 2's CSV
// or a chart.
type File struct {
	Name  string
	text  string
	chart interface{ WriteSVG(io.Writer) error }
}

// svg is the file of a chart, named by its suffix to the artifact's name.
func svg(suffix string, chart interface{ WriteSVG(io.Writer) error }) File {
	return File{Name: suffix + ".svg", chart: chart}
}

// Content returns the file's bytes. A chart with nothing to draw — a panel
// a narrowed sweep left empty — returns its error instead, and is not
// written.
func (f File) Content() ([]byte, error) {
	if f.chart == nil {
		return []byte(f.text), nil
	}
	var b bytes.Buffer
	if err := f.chart.WriteSVG(&b); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// Files lists the files of every derived artifact — those a's Timings
// name — in table order: its .txt, then its CSV and charts. summary.txt is
// Summary.
func (a Artifacts) Files() []File {
	var files []File
	for _, art := range artifacts {
		derived := slices.ContainsFunc(a.Timings, func(t ArtifactTiming) bool { return t.Name == art.name })
		if derived && art.text != nil {
			files = append(files, File{Name: art.name + ".txt", text: art.text(a)})
		}
		if derived && art.more != nil {
			for _, f := range art.more(a) {
				f.Name = art.name + f.Name
				files = append(files, f)
			}
		}
	}
	return files
}

// Summary is summary.txt: the .txt files, each followed by a blank line.
func (a Artifacts) Summary() string {
	var b strings.Builder
	for _, f := range a.Files() {
		if path.Ext(f.Name) == ".txt" {
			b.WriteString(f.text + "\n")
		}
	}
	return b.String()
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
