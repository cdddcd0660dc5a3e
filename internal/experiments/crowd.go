package experiments

// This file is the crowd campaign: the multi-tenant scenario family the
// paper's "shared service" framing implies but never evaluates. One
// 500-node trace serves hundreds of concurrent QoS batches per middleware;
// the report measures per-user fairness (completion-time quantiles and
// Jain's index over the batches), credit accounting, and the cloud fleet
// the service ran.

import (
	"context"
	"fmt"
	"slices"

	"spequlos/internal/campaign"
	"spequlos/internal/core"
	"spequlos/internal/stats"
)

// CrowdTrace and CrowdBot pin the crowd cell's coordinates: one 500-node
// SETI@home-like trace (the profile's PoolCap bounds the pool), SMALL BoTs.
const (
	CrowdTrace = "seti"
	CrowdBot   = "SMALL"
)

// CrowdJobs plans the crowd campaign: per middleware, one multi-batch cell
// with the default strategy plus its paired baseline (same seed, no
// SpeQuloS) for the speedup column.
func CrowdJobs(p Profile) []campaign.Job {
	var jobs []campaign.Job
	for _, mw := range campaign.AllMiddlewares() {
		sc := campaign.Scenario{
			Profile: p, Middleware: mw, TraceName: CrowdTrace, BotClass: CrowdBot,
		}
		jobs = append(jobs, campaign.Job{Scenario: sc})
		st := core.DefaultStrategy()
		scs := sc
		scs.Strategy = &st
		jobs = append(jobs, campaign.Job{Scenario: scs})
	}
	return jobs
}

// PlanCrowd returns the deduplicated crowd plan.
func PlanCrowd(p Profile) *campaign.Plan {
	plan := campaign.NewPlan()
	plan.Add(CrowdJobs(p)...)
	return plan
}

// CrowdRow is one middleware's crowd outcome.
type CrowdRow struct {
	Middleware string
	BatchSummary

	// BaselineMedian is the paired no-SpeQuloS cell's median per-batch
	// completion; MedianSpeedup = BaselineMedian / MedianCompletion.
	BaselineMedian float64
	MedianSpeedup  float64

	Makespan         float64 // cell completion, seconds from first submission
	CreditsAllocated float64
	CreditsBilled    float64
	Instances        int

	// Tiers is the per-service-class breakdown of a tiered cell, in
	// descending privilege order (nil for untiered cells, whose rendered
	// table keeps its historical shape).
	Tiers []CrowdTierRow
}

// CrowdTierRow is one service class's slice of a tiered crowd cell: the
// per-tier completion quantiles and fairness the tier contracts are judged
// on.
type CrowdTierRow struct {
	Tier string
	BatchSummary

	CreditsBilled float64
	Instances     int
}

// BatchSummary is the per-batch outcome of a multi-batch cell, or of one
// tier's slice of it: the per-user QoS view.
type BatchSummary struct {
	Batches   int // batches in the cell
	Completed int // batches that finished within the horizon
	Triggered int // batches whose QoS trigger fired

	// Per-batch completion-time stats, seconds from each batch's own
	// submission.
	MedianCompletion float64
	P90Completion    float64
	MaxCompletion    float64
	// JainIndex is Jain's fairness index over per-batch completion times
	// (1 = perfectly even service across the crowd). It is 0 unless every
	// batch completed: fairness over only the served users would read
	// highest exactly when part of the crowd got no service at all.
	JainIndex float64
}

// cells formats the summary's columns of the crowd table.
func (s BatchSummary) cells() []string {
	return []string{
		fmt.Sprint(s.Batches), fmt.Sprint(s.Completed), fmt.Sprint(s.Triggered),
		fmt.Sprintf("%.0fs", s.MedianCompletion), fmt.Sprintf("%.0fs", s.P90Completion),
		fmt.Sprintf("%.0fs", s.MaxCompletion), fmt.Sprintf("%.3f", s.JainIndex),
	}
}

// SummarizeBatches summarizes the batches of a multi-batch cell.
func SummarizeBatches(batches []campaign.BatchResult) BatchSummary {
	s := BatchSummary{Batches: len(batches)}
	var times []float64
	for _, br := range batches {
		if br.Completed {
			s.Completed++
			times = append(times, br.CompletionTime)
		}
		if br.TriggeredAt >= 0 {
			s.Triggered++
		}
	}
	s.MedianCompletion = stats.NearestRank(times, 0.5)
	s.P90Completion = stats.NearestRank(times, 0.9)
	s.MaxCompletion = stats.NearestRank(times, 1)
	if s.Completed == s.Batches {
		s.JainIndex = jainIndex(times)
	}
	return s
}

// CrowdReport is the crowd campaign's artifact.
type CrowdReport struct {
	Profile string
	Trace   string
	Bot     string
	Rows    []CrowdRow
}

// CrowdFrom derives the crowd report from an executed store.
func CrowdFrom(store *campaign.ResultStore, p Profile) (CrowdReport, error) {
	rep := CrowdReport{Profile: p.Name, Trace: CrowdTrace, Bot: CrowdBot}
	st := core.DefaultStrategy()
	for _, mw := range campaign.AllMiddlewares() {
		sc := campaign.Scenario{
			Profile: p, Middleware: mw, TraceName: CrowdTrace, BotClass: CrowdBot,
		}
		base, ok := store.Result(campaign.Job{Scenario: sc})
		if !ok {
			return rep, fmt.Errorf("experiments: crowd baseline for %s missing from store", mw)
		}
		scs := sc
		scs.Strategy = &st
		speq, ok := store.Result(campaign.Job{Scenario: scs})
		if !ok {
			return rep, fmt.Errorf("experiments: crowd cell for %s missing from store", mw)
		}
		row := CrowdRow{
			Middleware:       mw,
			BatchSummary:     SummarizeBatches(speq.Batches),
			BaselineMedian:   SummarizeBatches(base.Batches).MedianCompletion,
			Makespan:         speq.CompletionTime,
			CreditsAllocated: speq.CreditsAllocated,
			CreditsBilled:    speq.CreditsBilled,
			Instances:        speq.Instances,
			Tiers:            CrowdTiers(speq.Batches),
		}
		if row.MedianCompletion > 0 {
			row.MedianSpeedup = row.BaselineMedian / row.MedianCompletion
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// BuildCrowd runs the crowd campaign (resuming from opts' store when
// provided) and derives the report.
func BuildCrowd(ctx context.Context, p Profile, opts ArtifactOptions) (CrowdReport, campaign.Stats, error) {
	store := opts.Store
	if store == nil {
		store = campaign.NewResultStore()
	}
	c := &campaign.Campaign{Profile: p, Plan: PlanCrowd(p), Progress: opts.Progress}
	stats, err := c.Run(ctx, store)
	if err != nil {
		return CrowdReport{}, stats, err
	}
	rep, err := CrowdFrom(store, p)
	return rep, stats, err
}

// Render prints the crowd report as a fixed-width table.
func (r CrowdReport) Render() string {
	tbl := TextTable{
		Title: fmt.Sprintf("Crowd — concurrent QoS batches on one %s trace (%s profile, %s BoTs)",
			r.Trace, r.Profile, r.Bot),
		Headers: []string{"middleware", "batches", "done", "trig", "median", "p90",
			"max", "jain", "speedup", "credits", "fleet"},
	}
	for _, row := range r.Rows {
		tbl.AddRow(slices.Concat([]string{row.Middleware}, row.cells(), []string{
			fmt.Sprintf("%.2fx", row.MedianSpeedup),
			fmt.Sprintf("%.0f/%.0f", row.CreditsBilled, row.CreditsAllocated),
			fmt.Sprint(row.Instances),
		})...)
		for _, tr := range row.Tiers {
			tbl.AddRow(slices.Concat([]string{" +" + tr.Tier}, tr.cells(), []string{
				"", fmt.Sprintf("%.0f", tr.CreditsBilled), fmt.Sprint(tr.Instances),
			})...)
		}
	}
	return tbl.String()
}

// CrowdTiers summarizes a tiered cell's batches per service class, in
// descending privilege order, skipping empty classes; it returns nil for
// untiered cells.
func CrowdTiers(batches []campaign.BatchResult) []CrowdTierRow {
	var rows []CrowdTierRow
	for _, tier := range core.AllTiers() {
		tr := CrowdTierRow{Tier: string(tier)}
		var in []campaign.BatchResult
		for _, br := range batches {
			if core.Tier(br.Tier) == tier {
				in = append(in, br)
				tr.CreditsBilled += br.CreditsBilled
				tr.Instances += br.Instances
			}
		}
		if len(in) > 0 {
			tr.BatchSummary = SummarizeBatches(in)
			rows = append(rows, tr)
		}
	}
	return rows
}

// jainIndex computes Jain's fairness index (Σx)²/(n·Σx²), 0 for empty.
func jainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}
