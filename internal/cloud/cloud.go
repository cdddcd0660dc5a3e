// Package cloud provides the IaaS substrate SpeQuloS provisions workers
// from. It has two halves:
//
//   - A simulation cloud (SimCloud) used by the trace-driven evaluation:
//     instances boot after a short delay, are never preempted, and carry
//     grid-class power (Table 2: normal(3000, 300) nops/s).
//
//   - A libcloud-like Driver abstraction with mock providers for every
//     technology the paper's prototype supports (§3.7: Amazon EC2,
//     Eucalyptus, Rackspace, OpenNebula, StratusLab, Nimbus, plus the
//     custom Grid'5000 driver the authors wrote). The HTTP service layer
//     uses these; swapping in a real driver only requires implementing the
//     same interface.
package cloud

import (
	"fmt"

	"spequlos/internal/middleware"
	"spequlos/internal/sim"
	"spequlos/internal/stats"
)

// The evaluation's cloud-node model: an instance's worker connects to the DG
// server bootDelay seconds after the start request, with grid-class power.
const bootDelay = 120

var power = stats.TruncatedNormal{Mu: 3000, Sigma: 300, Lo: 1000, Hi: 5000}

// SimCloud instantiates cloud workers inside a simulation.
type SimCloud struct {
	eng *sim.Engine
	rng *sim.RNG
	seq int

	// opBoot is the registered boot-completion handler (Payload.A =
	// *Instance): starting an instance allocates no scheduling closure.
	opBoot sim.Op
}

// NewSimCloud builds a simulated IaaS on the engine.
func NewSimCloud(eng *sim.Engine, rng *sim.RNG) *SimCloud {
	c := &SimCloud{eng: eng, rng: rng.Fork("cloud")}
	c.opBoot = eng.RegisterOp(func(p sim.Payload) {
		inst := p.A.(*Instance)
		inst.BootedAt = c.eng.Now()
		inst.target.WorkerJoin(inst.Worker)
	})
	return c
}

// Engine is the engine the cloud's instances boot on.
func (c *SimCloud) Engine() *sim.Engine { return c.eng }

// Instance is one provisioned cloud worker bound to a DG server.
type Instance struct {
	Worker    *middleware.Worker
	BatchID   string
	StartedAt float64
	BootedAt  float64 // -1 until booted
	StoppedAt float64 // -1 while running

	target middleware.Server
	bootEv sim.Event
}

// Running reports whether the instance has not been stopped.
func (i *Instance) Running() bool { return i.StoppedAt < 0 }

// Booted reports whether the worker has connected to the DG server.
func (i *Instance) Booted() bool { return i.BootedAt >= 0 }

// CPUSeconds returns the billable time (from start request, the moment the
// provider starts charging) up to now, or up to the stop time.
func (i *Instance) CPUSeconds(now float64) float64 {
	end := now
	if i.StoppedAt >= 0 {
		end = i.StoppedAt
	}
	if end < i.StartedAt {
		return 0
	}
	return end - i.StartedAt
}

// Start boots a cloud worker dedicated to batchID on the target server.
// flat disables the batch dedication (the Flat deployment strategy: the
// worker competes for any task, the server unmodified).
func (c *SimCloud) Start(target middleware.Server, batchID string, flat bool) *Instance {
	c.seq++
	dedicated := batchID
	if flat {
		dedicated = ""
	}
	w := middleware.NewCloudWorker(c.seq, power.Sample(c.rng.Rand), dedicated)
	inst := &Instance{
		Worker:    w,
		BatchID:   batchID,
		StartedAt: c.eng.Now(),
		BootedAt:  -1,
		StoppedAt: -1,
		target:    target,
	}
	inst.bootEv = c.eng.AfterOp(bootDelay, c.opBoot, sim.Payload{A: inst})
	return inst
}

// Stop terminates an instance; its in-flight work is lost (the Scheduler
// only stops workers that are idle or no longer funded). Stopping twice is
// a no-op.
func (c *SimCloud) Stop(inst *Instance) {
	if inst == nil || !inst.Running() {
		return
	}
	inst.StoppedAt = c.eng.Now()
	c.eng.Cancel(inst.bootEv)
	if inst.Booted() {
		inst.target.WorkerLeave(inst.Worker)
	}
}

// Busy reports whether the instance's worker currently holds work.
func (i *Instance) Busy() bool {
	if !i.Booted() || !i.Running() {
		return false
	}
	return i.target.WorkerBusy(i.Worker)
}

// String identifies the instance for logs and test failures.
func (i *Instance) String() string {
	return fmt.Sprintf("cloud-instance(worker=%d batch=%s)", i.Worker.ID, i.BatchID)
}
