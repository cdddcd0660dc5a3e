// Package xwhep simulates the XtremWeb-HEP Desktop Grid middleware. XWHEP
// handles host volatility through heartbeats: workers send a keep-alive
// message every minute, and when the server has heard nothing for
// worker_timeout (15 minutes by default), it reassigns the worker's task to
// another host (§2.2, §4.1.3). Tasks run exactly once — there is no
// replication, which is why XWHEP's baseline tail is milder than BOINC's
// but its failure-detection latency still produces one.
//
// The server itself (server.go) is the single-execution model XWHEP shares
// with Condor: this file only turns XWHEP's parameters into a Model.
package xwhep

import "spequlos/internal/sim"

// Config carries the standard XWHEP server parameters (§4.1.3).
type Config struct {
	// KeepAlivePeriod is the worker heartbeat interval (keep_alive_period).
	KeepAlivePeriod float64
	// WorkerTimeout is the silence duration after which a worker is
	// declared lost and its task reassigned (worker_timeout).
	WorkerTimeout float64
}

// DefaultConfig returns the paper's simulation parameters:
// keep_alive_period=60, worker_timeout=900.
func DefaultConfig() Config {
	return Config{KeepAlivePeriod: 60, WorkerTimeout: 900}
}

// New creates an XWHEP server on the engine.
func New(eng *sim.Engine, cfg Config) *Server { return NewModel(eng, cfg.model()) }

// model translates the XWHEP parameters. Failure detection: the last
// heartbeat arrived within KeepAlivePeriod before the death; the server
// times out WorkerTimeout after it. Nothing is checkpointed, and a task
// whose worker was lost is reassigned before pending tasks.
func (cfg Config) model() Model {
	if cfg.KeepAlivePeriod <= 0 {
		cfg.KeepAlivePeriod = 60
	}
	if cfg.WorkerTimeout <= 0 {
		cfg.WorkerTimeout = 900
	}
	return Model{
		Name:         "XWHEP",
		DetectDelay:  cfg.WorkerTimeout + cfg.KeepAlivePeriod/2,
		RequeueFirst: true,
	}
}
