// Package condor simulates a Condor-style Desktop Grid middleware — the
// third volatility-handling mechanism alongside BOINC (replication +
// deadlines) and XWHEP (heartbeats + restart). The paper notes "Condor and
// OurGrid would have also been excellent candidates" (§2.2); this package
// makes the comparison possible.
//
// Condor's model, as simulated here:
//
//   - A central manager polls execution machines periodically (the
//     condor_startd ClassAd updates), so failures are detected within one
//     poll interval rather than via task deadlines.
//   - The standard universe checkpoints jobs: when a machine is reclaimed
//     or fails, the job migrates and resumes from its last periodic
//     checkpoint on the next available machine, losing at most the work
//     since that checkpoint.
//
// No replication: like XWHEP, each task runs once; unlike XWHEP, work
// survives machine loss (up to the checkpoint lag). The two are one server
// (xwhep.Server) under two parameter sets; this package only turns the
// Condor parameters into an xwhep.Model.
package condor

import (
	"spequlos/internal/sim"
	"spequlos/internal/xwhep"
)

// Config carries the Condor pool parameters.
type Config struct {
	// PollInterval is the central-manager status poll period: the upper
	// bound on failure-detection latency.
	PollInterval float64
	// CheckpointPeriod is the periodic checkpoint interval of the standard
	// universe: the maximum work lost on a migration.
	CheckpointPeriod float64
}

// DefaultConfig returns a conventional pool configuration: 5-minute
// ClassAd updates, 15-minute periodic checkpoints.
func DefaultConfig() Config {
	return Config{PollInterval: 300, CheckpointPeriod: 900}
}

// Server is a Condor central manager + schedd simulation: the
// single-execution server of package xwhep under Condor's Model.
type Server = xwhep.Server

// New creates a Condor pool on the engine.
func New(eng *sim.Engine, cfg Config) *Server { return xwhep.NewModel(eng, cfg.model()) }

// model translates the Condor parameters: the central manager notices a
// lost machine at its next poll, PollInterval/2 later on average; the job
// keeps its progress up to the last periodic checkpoint and is requeued for
// migration behind the jobs already waiting.
func (cfg Config) model() xwhep.Model {
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 300
	}
	if cfg.CheckpointPeriod <= 0 {
		cfg.CheckpointPeriod = 900
	}
	return xwhep.Model{
		Name:             "CONDOR",
		DetectDelay:      cfg.PollInterval / 2,
		CheckpointPeriod: cfg.CheckpointPeriod,
	}
}
