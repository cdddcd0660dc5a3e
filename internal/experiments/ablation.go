package experiments

import (
	"fmt"

	"spequlos/internal/campaign"
	"spequlos/internal/core"
	"spequlos/internal/metrics"
)

// This file holds ablation studies of three design choices the paper fixes
// without a sweep: the 10%-of-workload credit provisioning (§4.1.3), the one-minute
// monitoring period (§3.2), and the §7 future-work capacity-aware trigger
// versus the plain completion threshold. Each sweep plans variant jobs into
// the campaign engine; the baseline runs are shared with the matrix.

// AblationPoint is one setting's aggregate outcome over a mini-matrix.
type AblationPoint struct {
	Setting      string
	MeanSpeedup  float64 // baseline time / SpeQuloS time (completed pairs)
	MeanTRE      float64
	MeanSpentPct float64 // billed/allocated
	Runs         int
}

// ablationSetting is one knob position: a service configuration and credit
// fraction, labelled by the variant string that keys its jobs.
type ablationSetting struct {
	Setting        string
	Config         core.Config
	CreditFraction float64
}

func (s ablationSetting) job(sc Scenario) campaign.Job {
	cfg := s.Config
	frac := s.CreditFraction
	return campaign.Job{Scenario: sc, Variant: s.Setting, Config: &cfg, CreditFraction: &frac}
}

// ablationScenarios is the mini-matrix the sweeps run over: the volatile
// environments where SpeQuloS matters.
func ablationScenarios(p Profile) []Scenario {
	var out []Scenario
	for _, mw := range Middlewares() {
		for _, tn := range []string{"seti", "g5klyo"} {
			for off := 0; off < p.Offsets; off++ {
				out = append(out, Scenario{
					Profile: p, Middleware: mw, TraceName: tn, BotClass: "SMALL", Offset: off,
				})
			}
		}
	}
	return out
}

// ablationJobs plans the baselines of the mini-matrix plus one variant job
// per (scenario, setting).
func ablationJobs(p Profile, settings []ablationSetting) []campaign.Job {
	var jobs []campaign.Job
	for _, sc := range ablationScenarios(p) {
		jobs = append(jobs, campaign.Job{Scenario: sc})
		for _, s := range settings {
			jobs = append(jobs, s.job(sc))
		}
	}
	return jobs
}

// ablationFrom aggregates one sweep from an already-executed store.
func ablationFrom(store *campaign.ResultStore, p Profile, settings []ablationSetting) ([]AblationPoint, error) {
	scs := ablationScenarios(p)
	var out []AblationPoint
	for _, s := range settings {
		pt := AblationPoint{Setting: s.Setting}
		var su, tre, spent float64
		for _, sc := range scs {
			base, ok := store.Result(campaign.Job{Scenario: sc})
			if !ok {
				return nil, fmt.Errorf("experiments: store missing ablation baseline %s", campaign.Job{Scenario: sc}.Key())
			}
			speq, ok := store.Result(s.job(sc))
			if !ok {
				return nil, fmt.Errorf("experiments: store missing ablation variant %s", s.job(sc).Key())
			}
			if !base.Completed || !speq.Completed || speq.CompletionTime <= 0 {
				continue
			}
			t, _ := metrics.TailRemovalEfficiency(speq.CompletionTime, base.CompletionTime, base.Tail.IdealTime)
			sp := 0.0
			if speq.CreditsAllocated > 0 {
				sp = speq.CreditsBilled / speq.CreditsAllocated
			}
			su += base.CompletionTime / speq.CompletionTime
			tre += t
			spent += sp
			pt.Runs++
		}
		if pt.Runs > 0 {
			pt.MeanSpeedup = su / float64(pt.Runs)
			pt.MeanTRE = tre / float64(pt.Runs)
			pt.MeanSpentPct = spent / float64(pt.Runs)
		}
		out = append(out, pt)
	}
	return out, nil
}

func creditSettings() []ablationSetting {
	var out []ablationSetting
	for _, f := range []float64{0.02, 0.05, 0.10, 0.20} {
		out = append(out, ablationSetting{
			Setting:        fmt.Sprintf("credits=%.0f%%", f*100),
			Config:         core.Config{Strategy: core.DefaultStrategy(), MonitorPeriod: 60},
			CreditFraction: f,
		})
	}
	return out
}

func periodSettings(p Profile) []ablationSetting {
	var out []ablationSetting
	for _, period := range []float64{30, 60, 300, 900} {
		out = append(out, ablationSetting{
			Setting:        fmt.Sprintf("period=%.0fs", period),
			Config:         core.Config{Strategy: core.DefaultStrategy(), MonitorPeriod: period},
			CreditFraction: p.CreditFraction,
		})
	}
	return out
}

func triggerSettings(p Profile) []ablationSetting {
	var out []ablationSetting
	for _, tr := range []core.Trigger{
		core.CompletionThreshold{Frac: 0.9},
		core.DefaultCapacityAware(),
	} {
		out = append(out, ablationSetting{
			Setting: "trigger=" + tr.Code(),
			Config: core.Config{
				Strategy:      core.Strategy{Trigger: tr, Sizing: core.Conservative{}, Deploy: core.Reschedule},
				MonitorPeriod: 60,
			},
			CreditFraction: p.CreditFraction,
		})
	}
	return out
}

// CreditFractionSweepFrom derives, from an already-executed store, the sweep
// over the provisioned credits (the paper fixes them at 10% of the BoT
// workload): the QoS/cost trade-off.
func CreditFractionSweepFrom(store *campaign.ResultStore, p Profile) ([]AblationPoint, error) {
	return ablationFrom(store, p, creditSettings())
}

// MonitorPeriodSweepFrom derives, from an already-executed store, the sweep
// over the Information/Scheduler loop period (the paper monitors per minute;
// slower monitoring delays tail detection).
func MonitorPeriodSweepFrom(store *campaign.ResultStore, p Profile) ([]AblationPoint, error) {
	return ablationFrom(store, p, periodSettings(p))
}

// TriggerAblationFrom derives, from an already-executed store, the comparison
// of the plain completion threshold against the capacity-aware anticipation
// trigger (§7 future work).
func TriggerAblationFrom(store *campaign.ResultStore, p Profile) ([]AblationPoint, error) {
	return ablationFrom(store, p, triggerSettings(p))
}

// RenderAblation prints ablation points as a table.
func RenderAblation(title string, pts []AblationPoint) string {
	tbl := TextTable{
		Title:   title,
		Headers: []string{"setting", "mean speedup", "mean TRE", "credits used", "runs"},
	}
	for _, pt := range pts {
		tbl.AddRow(pt.Setting, f2(pt.MeanSpeedup), f2(pt.MeanTRE), pc(pt.MeanSpentPct),
			fmt.Sprintf("%d", pt.Runs))
	}
	return tbl.String()
}

// MiddlewareComparison runs the same workloads over all three middleware —
// the comparison the paper's §2.2 leaves open ("Condor and OurGrid would
// have also been excellent candidates"). Condor's checkpoint/migration
// model sits between BOINC (resume, but day-long failure detection) and
// XWHEP (15-minute detection, but full restarts).
type MiddlewareComparisonRow struct {
	Middleware     string
	MeanCompletion float64
	MeanSlowdown   float64
	Runs           int
}

// comparisonBot is the BoT class the middleware comparison runs, on one
// desktop grid and one best-effort grid trace.
const comparisonBot = "BIG"

// comparisonScenarios enumerates the baseline cells of the comparison.
func comparisonScenarios(p Profile) []Scenario {
	var out []Scenario
	for _, mw := range AllMiddlewares() {
		for _, tn := range []string{"seti", "g5klyo"} {
			for off := 0; off < p.Offsets; off++ {
				out = append(out, Scenario{
					Profile: p, Middleware: mw, TraceName: tn, BotClass: comparisonBot, Offset: off,
				})
			}
		}
	}
	return out
}

// ComparisonJobs plans the baseline jobs of the middleware comparison.
func ComparisonJobs(p Profile) []campaign.Job {
	var jobs []campaign.Job
	for _, sc := range comparisonScenarios(p) {
		jobs = append(jobs, campaign.Job{Scenario: sc})
	}
	return jobs
}

// CompareMiddlewareFrom derives, from an already-executed store, the
// baseline executions of one workload class across the three middleware.
func CompareMiddlewareFrom(store *campaign.ResultStore, p Profile) ([]MiddlewareComparisonRow, error) {
	var out []MiddlewareComparisonRow
	for _, mw := range AllMiddlewares() {
		row := MiddlewareComparisonRow{Middleware: mw}
		var comp, slow float64
		for _, sc := range comparisonScenarios(p) {
			if sc.Middleware != mw {
				continue
			}
			res, ok := store.Result(campaign.Job{Scenario: sc})
			if !ok {
				return nil, fmt.Errorf("experiments: store missing comparison cell %s", campaign.Job{Scenario: sc}.Key())
			}
			if !res.Completed {
				continue
			}
			comp += res.CompletionTime
			slow += res.Tail.Slowdown
			row.Runs++
		}
		if row.Runs > 0 {
			row.MeanCompletion = comp / float64(row.Runs)
			row.MeanSlowdown = slow / float64(row.Runs)
		}
		out = append(out, row)
	}
	return out, nil
}

// RenderMiddlewareComparison prints the comparison table.
func RenderMiddlewareComparison(rows []MiddlewareComparisonRow) string {
	tbl := TextTable{
		Title:   "Middleware comparison (" + comparisonBot + " baselines; CONDOR is the extension)",
		Headers: []string{"middleware", "mean completion (s)", "mean tail slowdown", "runs"},
	}
	for _, r := range rows {
		tbl.AddRow(r.Middleware, f0(r.MeanCompletion), f2(r.MeanSlowdown), fmt.Sprintf("%d", r.Runs))
	}
	return tbl.String()
}
