// Package experiments is the harness that regenerates every table and
// figure of the paper's evaluation (§4): it plans scenarios over the
// matrix {BOINC, XWHEP} × {seti, nd, g5klyo, g5kgre, spot10, spot100} ×
// {SMALL, BIG, RANDOM} × submission offsets × strategy combinations, runs
// them with paired seeds (the same seed drives the identical base execution
// with and without SpeQuloS, as in §4.1.3), and derives the paper's
// metrics.
//
// Simulations execute through internal/campaign: every builder plans its
// jobs into a campaign, the campaign engine runs each unique (scenario,
// strategy) job exactly once, and the figures/tables derive from the shared
// ResultStore. PlanArtifacts/DeriveArtifacts regenerate the whole
// evaluation from one campaign; see EXPERIMENTS.md.
package experiments

import (
	"spequlos/internal/campaign"
	"spequlos/internal/trace"
)

// Middleware names. CONDOR is the extension middleware (checkpoint +
// migration); the paper's evaluation matrix uses BOINC and XWHEP.
const (
	BOINC  = campaign.BOINC
	XWHEP  = campaign.XWHEP
	CONDOR = campaign.CONDOR
)

// Middlewares lists the middleware of the paper's evaluation matrix.
func Middlewares() []string { return campaign.Middlewares() }

// AllMiddlewares includes the CONDOR extension.
func AllMiddlewares() []string { return campaign.AllMiddlewares() }

// TraceNames lists the six BE-DCI traces of Table 2, in paper order.
func TraceNames() []string { return campaign.TraceNames() }

// BotClasses lists the three workload classes of Table 3.
func BotClasses() []string { return campaign.BotClasses() }

// TraceSource resolves a Table 2 trace name to its generator.
func TraceSource(name string) (trace.Source, error) { return campaign.TraceSource(name) }

// Profile scales the experiment matrix; see campaign.Profile.
type Profile = campaign.Profile

// Quick returns the bench profile (small BoTs, small pools).
func Quick() Profile { return campaign.Quick() }

// Standard returns the EXPERIMENTS.md profile.
func Standard() Profile { return campaign.Standard() }

// Full returns the paper-scale profile.
func Full() Profile { return campaign.Full() }

// Stress returns the kernel stress profile (10× quick churn, 30-day
// horizon); see campaign.Stress.
func Stress() Profile { return campaign.Stress() }

// Crowd returns the multi-tenant stress profile (hundreds of concurrent
// QoS batches on one 500-node trace); see campaign.Crowd.
func Crowd() Profile { return campaign.Crowd() }

// Crowd2K returns the tiered two-thousand-batch scale profile (sharded
// scheduler, tier arbitration under a fleet cap); see campaign.Crowd2K.
func Crowd2K() Profile { return campaign.Crowd2K() }

// ProfileByName resolves quick/standard/full/stress/crowd/crowd2k.
func ProfileByName(name string) (Profile, error) { return campaign.ProfileByName(name) }

// Scenario is one simulation to run.
type Scenario = campaign.Scenario

// Result captures one run's outcome and metrics.
type Result = campaign.Result

// Run executes a scenario through the campaign runner, retrying with a
// doubled horizon if the trace window proved too short to finish the BoT.
func Run(sc Scenario) Result { return campaign.Run(sc) }
