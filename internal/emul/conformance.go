package emul

import (
	"context"
	"fmt"
	"reflect"
	"strings"

	"spequlos/internal/campaign"
	"spequlos/internal/core"
)

// Spec scopes one conformance campaign: the scenario subset to run through
// both execution paths.
type Spec struct {
	Profile     campaign.Profile
	Middlewares []string
	Traces      []string
	Bots        []string
	Strategies  []core.Strategy
	// OffsetIndexes selects the submission offsets to emulate (default {0}).
	OffsetIndexes []int
	// Store, when non-nil, receives both sides of every cell — the emulated
	// job keys apart from the in-process one — so a conformance campaign
	// resumes like any other: what is already stored is not run again.
	Store *campaign.ResultStore
}

// QuickSpec is the quick-profile conformance subset CI runs: every
// middleware, two contrasting traces, and strategies covering all three
// triggers, both sizings and all three deployments.
func QuickSpec() Spec {
	return Spec{
		Profile:     campaign.Quick(),
		Middlewares: campaign.AllMiddlewares(),
		Traces:      []string{"seti", "g5klyo"},
		Bots:        []string{"SMALL"},
		Strategies:  mustStrategies("9C-C-R", "9C-G-F", "9A-C-D", "D-C-R"),
	}
}

func mustStrategies(labels ...string) []core.Strategy {
	out := make([]core.Strategy, len(labels))
	for i, l := range labels {
		st, err := core.StrategyByLabel(l)
		if err != nil {
			panic(err)
		}
		out[i] = st
	}
	return out
}

func (s Spec) withDefaults() Spec {
	if s.Profile.Name == "" {
		s.Profile = campaign.Quick()
	}
	if len(s.Middlewares) == 0 {
		s.Middlewares = campaign.Middlewares()
	}
	if len(s.Traces) == 0 {
		s.Traces = campaign.TraceNames()
	}
	if len(s.Bots) == 0 {
		s.Bots = campaign.BotClasses()
	}
	if len(s.Strategies) == 0 {
		s.Strategies = []core.Strategy{core.DefaultStrategy()}
	}
	if len(s.OffsetIndexes) == 0 {
		s.OffsetIndexes = []int{0}
	}
	return s
}

// scenarios enumerates the cells of the spec in deterministic order.
func (s Spec) scenarios() []campaign.Scenario {
	var out []campaign.Scenario
	for _, mw := range s.Middlewares {
		for _, tn := range s.Traces {
			for _, bc := range s.Bots {
				for _, off := range s.OffsetIndexes {
					for i := range s.Strategies {
						st := s.Strategies[i]
						out = append(out, campaign.Scenario{
							Profile: s.Profile, Middleware: mw, TraceName: tn,
							BotClass: bc, Offset: off, Strategy: &st,
						})
					}
				}
			}
		}
	}
	return out
}

// Cell is the conformance report of one scenario: the stored result of its
// in-process job and of its emulated one, and the first field they differ
// in. For a multi-batch cell the comparison also covers every batch —
// Sim.Batches[k] against Emul.Batches[k] — so a crowd cell only conforms
// when every individual user's outcome is the same on the two paths.
type Cell struct {
	Middleware string `json:"middleware"`
	Trace      string `json:"trace"`
	Bot        string `json:"bot"`
	Strategy   string `json:"strategy"`
	Offset     int    `json:"offset"`

	Sim  campaign.Result `json:"sim"`
	Emul campaign.Result `json:"emul"`

	// Pass is no Err and no Diff.
	Pass bool `json:"pass"`
	// Diff names the first field the two results differ in, with both
	// values, aggregate first and then batch by batch.
	Diff string `json:"diff,omitempty"`
	// Err is the emulated entry's failure (campaign.Entry.Err), or why the
	// comparison could not run.
	Err string `json:"err,omitempty"`
}

// Label identifies the cell.
func (c Cell) Label() string {
	return fmt.Sprintf("%s/%s/%s/%s#%d", c.Middleware, c.Trace, c.Bot, c.Strategy, c.Offset)
}

// Report is the outcome of a conformance campaign.
type Report struct {
	Profile string `json:"profile"`
	Cells   []Cell `json:"cells"`
}

// Pass reports whether every cell conformed.
func (r Report) Pass() bool {
	for _, c := range r.Cells {
		if !c.Pass {
			return false
		}
	}
	return len(r.Cells) > 0
}

// Failures returns the non-conforming cells.
func (r Report) Failures() []Cell {
	var out []Cell
	for _, c := range r.Cells {
		if !c.Pass {
			out = append(out, c)
		}
	}
	return out
}

// Text renders the report as a fixed-width table, the first difference of a
// failing cell on a line of its own under its row.
func (r Report) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Emulation conformance (%s profile, %d cells)\n", r.Profile, len(r.Cells))
	fmt.Fprintf(&b, "%-36s %8s %8s %5s %5s %10s %10s  %s\n",
		"cell", "sim ct", "emul ct", "inst", "=", "sim cr", "emul cr", "verdict")
	for _, c := range r.Cells {
		verdict := "PASS"
		if !c.Pass {
			verdict = "FAIL"
			if c.Err != "" {
				verdict = "ERROR " + c.Err
			}
		}
		fmt.Fprintf(&b, "%-36s %8.0f %8.0f %5d %5d %10.3f %10.3f  %s\n",
			c.Label(), c.Sim.CompletionTime, c.Emul.CompletionTime,
			c.Sim.Instances, c.Emul.Instances,
			c.Sim.CreditsBilled, c.Emul.CreditsBilled, verdict)
		if c.Diff != "" {
			fmt.Fprintf(&b, "    first difference: %s\n", c.Diff)
		}
	}
	status := "PASS"
	if !r.Pass() {
		status = fmt.Sprintf("FAIL (%d cells diverged)", len(r.Failures()))
	}
	fmt.Fprintf(&b, "overall: %s\n", status)
	return b.String()
}

// RunConformance plans every cell of the spec as two jobs — in-process and
// through the deployable HTTP stack (Job) — runs them as ONE deduplicated
// campaign into one store, and reports per-cell agreement of the two stored
// results. A spec the executor refuses to emulate (a sharded-kernel profile)
// is an error, not a report of diverged cells.
func RunConformance(ctx context.Context, spec Spec) (Report, error) {
	spec = spec.withDefaults()
	scenarios := spec.scenarios()
	rep := Report{Profile: spec.Profile.Name}
	if len(scenarios) == 0 {
		return rep, fmt.Errorf("emul: empty conformance spec")
	}
	c := campaign.Campaign{Profile: spec.Profile, Plan: campaign.NewPlan()}
	for _, sc := range scenarios {
		emulated := Job(sc)
		if err := emulated.Refused(); err != nil {
			return rep, err
		}
		c.Plan.Add(campaign.Job{Scenario: sc}, emulated)
	}
	store := spec.Store
	if store == nil {
		store = campaign.NewResultStore()
	}
	if _, err := c.Run(ctx, store); err != nil {
		return rep, err
	}
	rep.Cells = make([]Cell, len(scenarios))
	for i, sc := range scenarios {
		rep.Cells[i] = compareCell(sc, store)
	}
	return rep, nil
}

// compareCell reads both stored entries of a scenario and compares them.
func compareCell(sc campaign.Scenario, store *campaign.ResultStore) Cell {
	cell := Cell{
		Middleware: sc.Middleware, Trace: sc.TraceName, Bot: sc.BotClass,
		Strategy: sc.StrategyLabel(), Offset: sc.Offset,
	}
	sim, okSim := store.Get(campaign.Job{Scenario: sc}.Key())
	emul, okEmul := store.Get(Job(sc).Key())
	cell.Sim, cell.Emul = sim.Result, emul.Result
	switch {
	case !okSim || !okEmul:
		cell.Err = "result missing from store"
	case emul.Err != "":
		cell.Err = emul.Err
	case len(cell.Sim.Batches) != len(cell.Emul.Batches):
		// The per-batch comparison cannot run; no aggregate agreement can
		// stand in for it.
		cell.Err = fmt.Sprintf("batch count: sim %d, emul %d", len(cell.Sim.Batches), len(cell.Emul.Batches))
	default:
		cell.Diff = diff("", aggregate(cell.Sim), aggregate(cell.Emul))
		// Multi-batch cells conform batch by batch: the aggregate hiding a
		// per-user divergence must not pass.
		for k, sb := range cell.Sim.Batches {
			if cell.Diff != "" {
				break
			}
			cell.Diff = diff("batch "+sb.BatchID+" ", sb, cell.Emul.Batches[k])
		}
		cell.Pass = cell.Diff == ""
	}
	return cell
}

// aggregate is a result's cell-level outcome in the shape of one of its
// batches, so that one comparator serves both levels.
func aggregate(r campaign.Result) campaign.BatchResult {
	return campaign.BatchResult{
		Completed: r.Completed, Size: r.Size, CompletionTime: r.CompletionTime,
		CreditsAllocated: r.CreditsAllocated, CreditsBilled: r.CreditsBilled,
		Instances: r.Instances, TriggeredAt: r.TriggeredAt,
	}
}

// diff is the one comparator: the first field s and e differ in, with both
// values, or "" when every field is ==.
func diff(where string, s, e campaign.BatchResult) string {
	sv, ev := reflect.ValueOf(s), reflect.ValueOf(e)
	for i := range sv.NumField() {
		if a, b := sv.Field(i).Interface(), ev.Field(i).Interface(); a != b {
			return fmt.Sprintf("%s%s: sim %v, emul %v", where, sv.Type().Field(i).Name, a, b)
		}
	}
	return ""
}
