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

	Batches   int // batches in the cell
	Completed int // batches that finished within the horizon
	Triggered int // batches whose QoS trigger fired

	// Per-batch completion-time stats, seconds from each batch's own
	// submission — the per-user QoS view.
	MedianCompletion float64
	P90Completion    float64
	MaxCompletion    float64
	// JainIndex is Jain's fairness index over per-batch completion times
	// (1 = perfectly even service across the crowd). It is 0 unless every
	// batch completed: fairness over only the served users would read
	// highest exactly when part of the crowd got no service at all.
	JainIndex float64
	// BaselineMedian is the paired no-SpeQuloS cell's median per-batch
	// completion; MedianSpeedup = BaselineMedian / MedianCompletion.
	BaselineMedian float64
	MedianSpeedup  float64

	Makespan         float64 // cell completion, seconds from first submission
	CreditsAllocated float64
	CreditsBilled    float64
	Instances        int
	Events           uint64

	// Tiers is the per-service-class breakdown of a tiered cell, in
	// descending privilege order (nil for untiered cells, whose rendered
	// table keeps its historical shape).
	Tiers []CrowdTierRow
}

// CrowdTierRow is one service class's slice of a tiered crowd cell: the
// per-tier completion quantiles and fairness the tier contracts are judged
// on.
type CrowdTierRow struct {
	Tier      string
	Batches   int
	Completed int
	Triggered int

	// Completion-time quantiles, seconds from each batch's own submission.
	MedianCompletion float64
	P90Completion    float64
	MaxCompletion    float64
	// JainIndex is Jain's fairness index over this tier's per-batch
	// completion times; 0 unless every batch of the tier completed.
	JainIndex float64

	CreditsBilled float64
	Instances     int
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
			Batches:          len(speq.Batches),
			Makespan:         speq.CompletionTime,
			CreditsAllocated: speq.CreditsAllocated,
			CreditsBilled:    speq.CreditsBilled,
			Instances:        speq.Instances,
			Events:           speq.Events,
		}
		var times []float64
		for _, br := range speq.Batches {
			if br.Completed {
				row.Completed++
				times = append(times, br.CompletionTime)
			}
			if br.TriggeredAt >= 0 {
				row.Triggered++
			}
		}
		row.MedianCompletion = stats.NearestRank(times, 0.5)
		row.P90Completion = stats.NearestRank(times, 0.9)
		row.MaxCompletion = stats.NearestRank(times, 1)
		if row.Completed == row.Batches {
			row.JainIndex = jainIndex(times)
		}
		var baseTimes []float64
		for _, br := range base.Batches {
			if br.Completed {
				baseTimes = append(baseTimes, br.CompletionTime)
			}
		}
		row.BaselineMedian = stats.NearestRank(baseTimes, 0.5)
		if row.MedianCompletion > 0 {
			row.MedianSpeedup = row.BaselineMedian / row.MedianCompletion
		}
		row.Tiers = crowdTierRows(speq.Batches)
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
		tbl.AddRow(
			row.Middleware,
			fmt.Sprint(row.Batches),
			fmt.Sprint(row.Completed),
			fmt.Sprint(row.Triggered),
			fmt.Sprintf("%.0fs", row.MedianCompletion),
			fmt.Sprintf("%.0fs", row.P90Completion),
			fmt.Sprintf("%.0fs", row.MaxCompletion),
			fmt.Sprintf("%.3f", row.JainIndex),
			fmt.Sprintf("%.2fx", row.MedianSpeedup),
			fmt.Sprintf("%.0f/%.0f", row.CreditsBilled, row.CreditsAllocated),
			fmt.Sprint(row.Instances),
		)
		for _, tr := range row.Tiers {
			tbl.AddRow(
				" +"+tr.Tier,
				fmt.Sprint(tr.Batches),
				fmt.Sprint(tr.Completed),
				fmt.Sprint(tr.Triggered),
				fmt.Sprintf("%.0fs", tr.MedianCompletion),
				fmt.Sprintf("%.0fs", tr.P90Completion),
				fmt.Sprintf("%.0fs", tr.MaxCompletion),
				fmt.Sprintf("%.3f", tr.JainIndex),
				"",
				fmt.Sprintf("%.0f", tr.CreditsBilled),
				fmt.Sprint(tr.Instances),
			)
		}
	}
	return tbl.String()
}

// crowdTierRows aggregates a tiered cell's batches per service class, in
// descending privilege order; it returns nil for untiered cells.
func crowdTierRows(batches []campaign.BatchResult) []CrowdTierRow {
	tiered := false
	for _, br := range batches {
		if br.Tier != "" {
			tiered = true
			break
		}
	}
	if !tiered {
		return nil
	}
	var rows []CrowdTierRow
	for _, tier := range core.AllTiers() {
		tr := CrowdTierRow{Tier: string(tier)}
		var times []float64
		for _, br := range batches {
			if core.Tier(br.Tier).OrFree() != tier {
				continue
			}
			tr.Batches++
			tr.CreditsBilled += br.CreditsBilled
			tr.Instances += br.Instances
			if br.Completed {
				tr.Completed++
				times = append(times, br.CompletionTime)
			}
			if br.TriggeredAt >= 0 {
				tr.Triggered++
			}
		}
		if tr.Batches == 0 {
			continue
		}
		tr.MedianCompletion = stats.NearestRank(times, 0.5)
		tr.P90Completion = stats.NearestRank(times, 0.9)
		tr.MaxCompletion = stats.NearestRank(times, 1)
		if tr.Completed == tr.Batches {
			tr.JainIndex = jainIndex(times)
		}
		rows = append(rows, tr)
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
