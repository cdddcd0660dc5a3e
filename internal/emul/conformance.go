package emul

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"

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
	// Parallelism bounds concurrent emulated runs (0 = profile default).
	Parallelism int
	// Store, when non-nil, is reused for the simulator side: cells already
	// simulated are not re-run.
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

// CrowdSpec is the concurrency conformance subset CI runs: a reduced crowd
// cell — eight interleaved QoS batches sharing one trace — per middleware,
// proving the HTTP stack agrees with the in-process simulator batch by
// batch while the Scheduler polls the DG through one aggregated query per
// tick. (The full crowd profile runs 200 batches; eight keeps the CI cell
// under a second while still exercising concurrent monitor state.)
func CrowdSpec() Spec {
	p := campaign.Crowd()
	p.Batches = 8
	p.SubmitSpread = 1800
	return Spec{
		Profile:     p,
		Middlewares: campaign.AllMiddlewares(),
		Traces:      []string{"seti"},
		Bots:        []string{"SMALL"},
		Strategies:  mustStrategies("9C-C-R"),
	}
}

// TieredCrowdSpec is CrowdSpec under tier arbitration: the eight batches span
// the three service classes (campaign.Scenario.SubTier) and a fleet cap of
// three makes them contend, so the cell only conforms if the deployable
// Scheduler admits, tick by tick, the batches the simulator admits.
func TieredCrowdSpec() Spec {
	s := CrowdSpec()
	s.Profile.Tiered = true
	s.Profile.FleetCap = 3
	return s
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

// The relative tolerances of the comparison: 1% on completion times, and
// round-off on credits, which the two paths compute with the same float
// expressions.
const (
	completionTol = 0.01
	creditsTol    = 1e-6
)

// Metrics are the values both execution paths must agree on.
type Metrics struct {
	Completed      bool    `json:"completed"`
	CompletionTime float64 `json:"completion_time"`
	TriggeredAt    float64 `json:"triggered_at"`
	Instances      int     `json:"instances"`
	CreditsBilled  float64 `json:"credits_billed"`
	// Batches carries the per-batch metrics of a multi-batch cell; the
	// comparison then runs batch by batch, so a crowd cell only conforms
	// when every individual user's trigger, fleet, credits and completion
	// agree across the two paths.
	Batches []BatchMetrics `json:"batches,omitempty"`
}

// BatchMetrics are one sub-batch's comparison values.
type BatchMetrics struct {
	BatchID        string  `json:"batch_id"`
	Completed      bool    `json:"completed"`
	CompletionTime float64 `json:"completion_time"`
	TriggeredAt    float64 `json:"triggered_at"`
	Instances      int     `json:"instances"`
	CreditsBilled  float64 `json:"credits_billed"`
}

// Cell is the conformance report of one scenario.
type Cell struct {
	Middleware string `json:"middleware"`
	Trace      string `json:"trace"`
	Bot        string `json:"bot"`
	Strategy   string `json:"strategy"`
	Offset     int    `json:"offset"`

	Sim  Metrics `json:"sim"`
	Emul Metrics `json:"emul"`

	TriggerMatch    bool   `json:"trigger_match"`
	InstancesMatch  bool   `json:"instances_match"`
	CreditsMatch    bool   `json:"credits_match"`
	CompletionMatch bool   `json:"completion_match"`
	Pass            bool   `json:"pass"`
	Err             string `json:"err,omitempty"`
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

// Text renders the report as a fixed-width table.
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
	}
	status := "PASS"
	if !r.Pass() {
		status = fmt.Sprintf("FAIL (%d cells diverged)", len(r.Failures()))
	}
	fmt.Fprintf(&b, "overall: %s\n", status)
	return b.String()
}

// RunConformance executes every cell of the spec both in-process (through
// the campaign engine) and through the deployable HTTP stack (through
// RunCell), and reports per-cell agreement. The simulator side runs as one
// deduplicated campaign; the emulated side runs on a bounded worker pool.
func RunConformance(ctx context.Context, spec Spec) (Report, error) {
	spec = spec.withDefaults()
	scenarios := spec.scenarios()
	rep := Report{Profile: spec.Profile.Name}
	if len(scenarios) == 0 {
		return rep, fmt.Errorf("emul: empty conformance spec")
	}

	// Simulator side: one campaign over all cells.
	store := spec.Store
	if store == nil {
		store = campaign.NewResultStore()
	}
	jobs := make([]campaign.Job, len(scenarios))
	for i, sc := range scenarios {
		jobs[i] = campaign.Job{Scenario: sc}
	}
	c := campaign.New(spec.Profile, jobs...)
	c.Parallelism = spec.Parallelism
	if _, err := c.Run(ctx, store); err != nil {
		return rep, err
	}

	// Emulated side: each cell through the HTTP stack.
	cells := make([]Cell, len(scenarios))
	workers := spec.Parallelism
	if workers <= 0 {
		workers = spec.Profile.Workers()
	}
	if workers > len(scenarios) {
		workers = len(scenarios)
	}
	var wg sync.WaitGroup
	idxCh := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				cells[i] = spec.runCell(scenarios[i], store)
			}
		}()
	}
feed:
	for i := range scenarios {
		select {
		case idxCh <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idxCh)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return rep, err
	}
	rep.Cells = cells
	return rep, nil
}

// runCell emulates one scenario and compares it with its stored simulator
// result.
func (spec Spec) runCell(sc campaign.Scenario, store *campaign.ResultStore) Cell {
	cell := Cell{
		Middleware: sc.Middleware, Trace: sc.TraceName, Bot: sc.BotClass,
		Strategy: sc.StrategyLabel(), Offset: sc.Offset,
	}
	simRes, ok := store.Result(campaign.Job{Scenario: sc})
	if !ok {
		cell.Err = "simulator result missing from store"
		return cell
	}
	cell.Sim = Metrics{
		Completed: simRes.Completed, CompletionTime: simRes.CompletionTime,
		TriggeredAt: simRes.TriggeredAt, Instances: simRes.Instances,
		CreditsBilled: simRes.CreditsBilled,
	}
	for _, br := range simRes.Batches {
		cell.Sim.Batches = append(cell.Sim.Batches, BatchMetrics{
			BatchID: br.BatchID, Completed: br.Completed,
			CompletionTime: br.CompletionTime, TriggeredAt: br.TriggeredAt,
			Instances: br.Instances, CreditsBilled: br.CreditsBilled,
		})
	}
	out, err := RunCell(sc)
	if err != nil {
		cell.Err = err.Error()
		return cell
	}
	cell.Emul = Metrics{
		Completed: out.Completed, CompletionTime: out.CompletionTime,
		TriggeredAt: out.TriggeredAt, Instances: out.Instances,
		CreditsBilled: out.CreditsBilled,
	}
	for _, bo := range out.Batches {
		cell.Emul.Batches = append(cell.Emul.Batches, BatchMetrics{
			BatchID: bo.BatchID, Completed: bo.Completed,
			CompletionTime: bo.CompletionTime, TriggeredAt: bo.TriggeredAt,
			Instances: bo.Instances, CreditsBilled: bo.CreditsBilled,
		})
	}
	cell.TriggerMatch = sameTrigger(cell.Sim.TriggeredAt, cell.Emul.TriggeredAt)
	cell.InstancesMatch = cell.Sim.Instances == cell.Emul.Instances
	cell.CreditsMatch = within(cell.Sim.CreditsBilled, cell.Emul.CreditsBilled, creditsTol)
	cell.CompletionMatch = cell.Sim.Completed == cell.Emul.Completed &&
		(!cell.Sim.Completed ||
			within(cell.Sim.CompletionTime, cell.Emul.CompletionTime, completionTol))
	// Multi-batch cells conform batch by batch: the aggregate hiding a
	// per-user divergence must not pass.
	if len(cell.Sim.Batches) != len(cell.Emul.Batches) {
		// The per-batch comparison never ran; no aggregate agreement can
		// stand in for it.
		cell.TriggerMatch, cell.InstancesMatch = false, false
		cell.CreditsMatch, cell.CompletionMatch = false, false
		cell.Err = fmt.Sprintf("batch count: sim %d, emul %d",
			len(cell.Sim.Batches), len(cell.Emul.Batches))
	} else {
		for i := range cell.Sim.Batches {
			sb, eb := cell.Sim.Batches[i], cell.Emul.Batches[i]
			cell.TriggerMatch = cell.TriggerMatch && sameTrigger(sb.TriggeredAt, eb.TriggeredAt)
			cell.InstancesMatch = cell.InstancesMatch && sb.Instances == eb.Instances
			cell.CreditsMatch = cell.CreditsMatch && within(sb.CreditsBilled, eb.CreditsBilled, creditsTol)
			cell.CompletionMatch = cell.CompletionMatch && sb.Completed == eb.Completed &&
				(!sb.Completed || within(sb.CompletionTime, eb.CompletionTime, completionTol))
		}
	}
	cell.Pass = cell.TriggerMatch && cell.InstancesMatch && cell.CreditsMatch && cell.CompletionMatch
	return cell
}

// sameTrigger compares trigger decisions: both never fired, or both fired at
// the same monitor tick.
func sameTrigger(a, b float64) bool {
	if a < 0 || b < 0 {
		return a < 0 && b < 0
	}
	return math.Abs(a-b) <= 1e-6
}

// within reports |a−b| ≤ tol·max(1, |a|, |b|).
func within(a, b, tol float64) bool {
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= tol*scale
}
