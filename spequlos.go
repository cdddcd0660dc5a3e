// Package spequlos is the public API of this reproduction of "SpeQuloS: A
// QoS Service for BoT Applications Using Best Effort Distributed Computing
// Infrastructures" (Delamare, Fedak, Kondo, Lodygensky — HPDC 2012 / INRIA
// RR-7890).
//
// SpeQuloS improves the Quality of Service of Bag-of-Tasks applications
// running on best-effort infrastructures (desktop grids, best-effort grid
// queues, cloud spot instances) by monitoring BoT progress and dynamically
// provisioning stable cloud workers to execute the critical tail of the
// BoT. This package re-exports the building blocks:
//
//   - workload and infrastructure models (BoT classes of Table 3, BE-DCI
//     availability traces of Table 2),
//   - the BOINC and XtremWeb-HEP middleware simulators,
//   - the SpeQuloS service modules (Information, Credit System, Oracle,
//     Scheduler) and every provisioning strategy of §3.5,
//   - the campaign engine (plan unique simulations once, execute each
//     exactly once on a worker pool, persist and resume the result store)
//     and the trace-driven experiment harness that derives each table and
//     figure of the paper's evaluation from it,
//   - the deployable HTTP service layer (one web service per module),
//   - the emulation mode, which runs that HTTP stack inside the simulation
//     on a virtual clock, as the QoS side of the cell Simulate runs, and
//     proves cell by cell that it matches the in-process simulator (Emulate
//     returns a Result like Simulate; RunConformance compares the two).
//
// Quick start — compare one execution with and without SpeQuloS:
//
//	base := spequlos.Simulate(spequlos.Scenario{
//	    Profile: spequlos.QuickProfile(), Middleware: "XWHEP",
//	    TraceName: "seti", BotClass: "SMALL",
//	})
//	st := spequlos.DefaultStrategy()
//	speq := spequlos.Simulate(spequlos.Scenario{
//	    Profile: spequlos.QuickProfile(), Middleware: "XWHEP",
//	    TraceName: "seti", BotClass: "SMALL", Strategy: &st,
//	})
//	fmt.Printf("speedup %.2fx\n", base.CompletionTime/speq.CompletionTime)
//
// See examples/ for runnable programs and cmd/ for the CLI tools.
package spequlos

import (
	"context"

	"spequlos/internal/campaign"
	"spequlos/internal/core"
	"spequlos/internal/emul"
	"spequlos/internal/experiments"
)

// Strategy combines a trigger (when to start cloud workers), a sizing rule
// (how many) and a deployment mode (how they attach), named like the paper:
// 9C-C-R = Completion threshold, Conservative, Reschedule.
type Strategy = core.Strategy

// Prediction is the Oracle's completion-time prediction with its historical
// uncertainty (§3.4).
type Prediction = core.Prediction

// Trigger strategy implementations (§3.5).
type (
	// CompletionThreshold starts cloud workers at a completed fraction.
	CompletionThreshold = core.CompletionThreshold
	// AssignmentThreshold starts cloud workers at an assigned fraction.
	AssignmentThreshold = core.AssignmentThreshold
	// ExecutionVariance detects the tail from tc(x) − ta(x) doubling.
	ExecutionVariance = core.ExecutionVariance
	// Greedy starts the whole credit allowance at once.
	Greedy = core.Greedy
	// Conservative sizes the fleet to survive the estimated remaining time.
	Conservative = core.Conservative
)

// Deployment modes (§3.5).
const (
	Flat             = core.Flat
	Reschedule       = core.Reschedule
	CloudDuplication = core.CloudDuplication
)

// CreditsPerCPUHour is the Credit System exchange rate (§3.3).
const CreditsPerCPUHour = core.CreditsPerCPUHour

// DefaultStrategy returns 9C-C-R, the paper's recommended combination.
func DefaultStrategy() Strategy { return core.DefaultStrategy() }

// AllStrategies enumerates the 18 combinations evaluated in Figs 4 and 5.
func AllStrategies() []Strategy { return core.AllStrategies() }

// StrategyByLabel parses a label like "9A-G-D".
func StrategyByLabel(label string) (Strategy, error) { return core.StrategyByLabel(label) }

// Scenario selects one simulated execution: middleware (BOINC, XWHEP or the
// CONDOR extension), BE-DCI trace (seti, nd, g5klyo, g5kgre, spot10,
// spot100), BoT class (SMALL, BIG, RANDOM), submission offset, and
// optionally a SpeQuloS strategy (nil = baseline).
type Scenario = experiments.Scenario

// Result is the outcome and metrics of one simulated execution.
type Result = experiments.Result

// Profile scales the experiment matrix (BoT sizes, node pools, offsets).
type Profile = experiments.Profile

// QuickProfile returns the benchmark-scale profile.
func QuickProfile() Profile { return experiments.Quick() }

// StandardProfile returns the EXPERIMENTS.md-scale profile.
func StandardProfile() Profile { return experiments.Standard() }

// FullProfile returns the paper-scale profile.
func FullProfile() Profile { return experiments.Full() }

// StressProfile returns the kernel stress profile (10× quick churn over a
// 30-day horizon).
func StressProfile() Profile { return experiments.Stress() }

// CrowdProfile returns the multi-tenant stress profile: one 500-node trace
// serving 200 concurrent QoS batches, each with its own credit order and
// trigger, monitored through one aggregated DG poll per tick. Scenario
// cells under it carry Profile.Batches interleaved BoTs and report
// per-batch outcomes in Result.Batches.
func CrowdProfile() Profile { return experiments.Crowd() }

// Simulate runs one scenario to completion and returns its metrics. Runs
// are deterministic in the scenario's seed; pairing a baseline and a
// SpeQuloS run of the same scenario reproduces the paper's paired
// comparisons.
func Simulate(sc Scenario) Result { return experiments.Run(sc) }

// Campaign plans a set of unique simulation jobs and executes each exactly
// once on a bounded worker pool, filling a ResultStore. Campaigns stream
// progress events, honour context cancellation, and resume from a
// previously saved store.
type Campaign = campaign.Campaign

// CampaignJob is one unique simulation of a campaign, identified by a
// content key (profile + scenario + strategy label + seed).
type CampaignJob = campaign.Job

// CampaignPlan is an ordered, deduplicated set of campaign jobs.
type CampaignPlan = campaign.Plan

// CampaignEvent is one streaming progress notification of a campaign run.
type CampaignEvent = campaign.Event

// CampaignStats summarizes a campaign run (planned/executed/cached jobs,
// simulation events, wall clock).
type CampaignStats = campaign.Stats

// ResultStore is the keyed, concurrency-safe store campaigns fill; it
// serializes to JSON for persistence and resumption.
type ResultStore = campaign.ResultStore

// StoreEntry is one stored simulation outcome.
type StoreEntry = campaign.Entry

// NewResultStore returns an empty result store.
func NewResultStore() *ResultStore { return campaign.NewResultStore() }

// LoadResultStore reads a store previously written with SaveFile.
func LoadResultStore(path string) (*ResultStore, error) { return campaign.LoadFile(path) }

// NewCampaign builds a campaign over the given jobs, deduplicating by
// content key.
func NewCampaign(p Profile, jobs ...CampaignJob) *Campaign { return campaign.New(p, jobs...) }

// RunCampaign executes every job not already present in store, bounded by
// the campaign's parallelism, until done or ctx is cancelled. Partial
// results stay in the store, so a cancelled campaign resumes by running
// again with the same store.
func RunCampaign(ctx context.Context, c *Campaign, store *ResultStore) (CampaignStats, error) {
	return c.Run(ctx, store)
}

// ConformanceSpec scopes a conformance campaign: the scenario subset run
// both in-process and through the HTTP stack, and the store both sides
// resume from.
type ConformanceSpec = emul.Spec

// ConformanceReport is the per-cell agreement report of a conformance
// campaign.
type ConformanceReport = emul.Report

// ConformanceCell is one cell of a conformance report: the Result of the
// in-process run, the Result of the emulated one, and the first field where
// they differ.
type ConformanceCell = emul.Cell

// Emulate executes one scenario (which must carry a strategy) through the
// deployable HTTP service stack — all four modules on one loopback listener,
// clocks virtualized, the Desktop Grid simulated behind the gateway wire
// format. It is the cell Simulate runs with the stack as its QoS side, so it
// returns the same Result, field for field comparable; emulated runs are
// deterministic. A sharded-kernel profile (stress, crowd2k) is refused.
func Emulate(sc Scenario) (Result, error) { return emul.RunCell(sc) }

// QuickConformanceSpec returns the quick-profile conformance subset CI runs:
// every middleware, two contrasting traces, and strategies covering every
// trigger, sizing and deployment.
func QuickConformanceSpec() ConformanceSpec { return emul.QuickSpec() }

// RunConformance executes every cell of the spec both in-process and through
// the HTTP stack and reports per cell whether the two Results are equal,
// field by field and batch by batch, every field by == with no tolerance.
func RunConformance(ctx context.Context, spec ConformanceSpec) (ConformanceReport, error) {
	return emul.RunConformance(ctx, spec)
}

// Middlewares lists the middleware of the paper's evaluation matrix, BOINC
// and XWHEP. Simulate also accepts CONDOR, the extension middleware.
func Middlewares() []string { return experiments.Middlewares() }

// TraceNames lists the six BE-DCI traces of Table 2.
func TraceNames() []string { return experiments.TraceNames() }

// BotClasses lists the three workload classes of Table 3.
func BotClasses() []string { return experiments.BotClasses() }
