// Package middleware defines the shared model of Desktop Grid middleware
// (§2.2 of the paper): a server that schedules tasks, workers that pull and
// execute them, and the progress counters SpeQuloS monitors. The concrete
// middleware — BOINC (internal/boinc), XtremWeb-HEP (internal/xwhep) and
// Condor (internal/condor) — implement the Server interface by embedding the
// Frame of this package and handing it their volatility-handling Mechanism
// (replication + deadlines vs a single execution + failure detection).
package middleware

import (
	"spequlos/internal/bot"
	"spequlos/internal/sim"
)

// Worker is a computing resource attached to a server. Node workers are
// created by the trace binding; Cloud workers by the SpeQuloS Scheduler. A
// worker belongs to the one server it first joins (see Server.WorkerJoin).
type Worker struct {
	ID    int
	Power float64 // instructions per second
	Cloud bool
	// DedicatedBatch restricts the tasks the worker may receive to one
	// QoS-enabled batch (batchid in BOINC, xwgroup in XWHEP; §3.7). Empty
	// means the worker competes for any task (the Flat strategy).
	DedicatedBatch string

	// table is the workerTable of the server the worker belongs to, slot its
	// number there.
	table any
	slot  int32
}

// cloudWorkerIDBase keeps cloud worker IDs disjoint from trace node IDs.
const cloudWorkerIDBase = 1 << 30

// NewCloudWorker builds a cloud worker with an ID in the reserved range.
func NewCloudWorker(seq int, power float64, batchID string) *Worker {
	return &Worker{ID: cloudWorkerIDBase + seq, Power: power, Cloud: true, DedicatedBatch: batchID}
}

// Batch is a bag of tasks as submitted to a middleware server. Arrival
// offsets in the tasks are relative to the submission instant.
type Batch struct {
	ID            string
	WallClockTime float64
	Tasks         []bot.Task
}

// BatchFromBoT converts a generated workload into a submittable batch.
func BatchFromBoT(b *bot.BoT) Batch {
	return Batch{ID: b.ID, WallClockTime: b.WallClockTime, Tasks: b.Tasks}
}

// Progress is the server-side view of one batch, the only information
// SpeQuloS needs (§3.2: "Because we monitor the BoT execution progress, a
// single QoS mechanism can be applied to a variety of infrastructures").
//
// On the DG gateway's wire every field is omitted when zero, so a batch
// waiting in the queue reads {"size":40,"arrived":40,"queued":40}.
type Progress struct {
	Size         int `json:"size,omitempty"`          // total tasks in the batch
	Arrived      int `json:"arrived,omitempty"`       // tasks submitted so far
	Completed    int `json:"completed,omitempty"`     // tasks completed
	EverAssigned int `json:"ever_assigned,omitempty"` // tasks assigned to a worker at least once (monotone)
	Running      int `json:"running,omitempty"`       // tasks the server believes are executing
	Queued       int `json:"queued,omitempty"`        // tasks waiting for a worker
	Workers      int `json:"workers,omitempty"`       // workers currently attached to the server
	// IdleInstances names, by instance id, the batch's cloud instances whose
	// workers are connected and hold no assignment: what Greedy releases
	// (§3.5). Only a DG gateway that knows the cloud instances fills it; a
	// server's own Progress leaves it nil.
	IdleInstances []string `json:"idle_instances,omitempty"`
}

// Done reports whether every task completed.
func (p Progress) Done() bool { return p.Size > 0 && p.Completed >= p.Size }

// Listener observes task lifecycle events. Implementations must not block;
// they run inside the simulation loop.
type Listener interface {
	// TaskAssigned fires on a task's first assignment to any worker.
	TaskAssigned(batchID string, taskID int, at float64)
	// TaskCompleted fires once per task, when its result is accepted. by is
	// the worker whose result completed it: for a merged result
	// (MarkCompleted), the worker that computed it on the other server, or
	// nil when none is known.
	TaskCompleted(batchID string, taskID int, by *Worker, at float64)
	// BatchCompleted fires when the last task of a batch completes.
	BatchCompleted(batchID string, at float64)
}

// Listeners fans events out to multiple listeners.
type Listeners []Listener

// TaskAssigned implements Listener by fan-out.
func (ls Listeners) TaskAssigned(b string, t int, at float64) {
	for _, l := range ls {
		l.TaskAssigned(b, t, at)
	}
}

// TaskCompleted implements Listener by fan-out.
func (ls Listeners) TaskCompleted(b string, t int, by *Worker, at float64) {
	for _, l := range ls {
		l.TaskCompleted(b, t, by, at)
	}
}

// BatchCompleted implements Listener by fan-out.
func (ls Listeners) BatchCompleted(b string, at float64) {
	for _, l := range ls {
		l.BatchCompleted(b, at)
	}
}

// Server is the middleware-neutral surface consumed by the trace binding,
// the SpeQuloS Scheduler and the experiment harness. A worker belongs to one
// server: the trace binding and the simulated cloud each create their workers
// for one target, and a server numbers the workers it sees, keeping the
// number on the Worker.
type Server interface {
	// MiddlewareName identifies the middleware ("BOINC", "XWHEP").
	MiddlewareName() string
	// Engine is the engine the server's events fire on.
	Engine() *sim.Engine
	// Submit registers a batch; task arrivals are scheduled relative to
	// the current virtual time. Task IDs must be distinct and non-negative.
	Submit(b Batch)
	// WorkerJoin attaches a worker; it immediately becomes eligible for
	// work. Joining an already-attached worker is a no-op. A worker belongs
	// to the first server it joins: joining it to another one panics.
	WorkerJoin(w *Worker)
	// WorkerLeave detaches a worker. Its in-flight computation is lost;
	// the server only finds out through its own failure-detection
	// mechanism (heartbeat timeout or replica deadline).
	WorkerLeave(w *Worker)
	// Progress returns the current view of a batch.
	Progress(batchID string) Progress
	// Done reports whether a batch has fully completed.
	Done(batchID string) bool
	// Incomplete snapshots the specs of not-yet-completed tasks (used by
	// the Cloud Duplication strategy to mirror the tail onto a cloud
	// server).
	Incomplete(batchID string) []bot.Task
	// MarkCompleted records an externally-computed result for a task
	// (result merging in Cloud Duplication), computed by worker by on
	// another server. Unknown IDs are ignored.
	MarkCompleted(batchID string, taskID int, by *Worker)
	// WorkerBusy reports whether the worker currently holds an
	// assignment. The SpeQuloS Scheduler uses it to stop idle cloud
	// workers under the Greedy provisioning strategy.
	WorkerBusy(w *Worker) bool
	// SetReschedule enables the Reschedule cloud deployment strategy:
	// dedicated cloud workers with no pending work receive duplicates of
	// running tasks (§3.5). This models the DG-server patch the paper
	// describes.
	SetReschedule(enabled bool)
	// AddListener subscribes to task lifecycle events.
	AddListener(l Listener)
}
