package core

import (
	"testing"

	"spequlos/internal/bot"
	"spequlos/internal/cloud"
	"spequlos/internal/middleware"
	"spequlos/internal/sim"
	"spequlos/internal/xwhep"
)

// completionLog records when a server reports each task of a batch
// completed, and which of them one of its own workers computed.
type completionLog struct {
	batchID  string
	at       map[int]float64
	computed map[int]bool
}

func newCompletionLog(batchID string) *completionLog {
	return &completionLog{batchID: batchID, at: map[int]float64{}, computed: map[int]bool{}}
}

func (l *completionLog) TaskAssigned(string, int, float64) {}
func (l *completionLog) TaskCompleted(batchID string, taskID int, at float64) {
	if batchID == l.batchID {
		l.at[taskID] = at
	}
}
func (l *completionLog) BatchCompleted(string, float64) {}
func (l *completionLog) TaskExecutedBy(batchID string, taskID int, w *middleware.Worker, _ float64) {
	if batchID == l.batchID && w != nil {
		l.computed[taskID] = true
	}
}

// TestShardedCloudDupMergesAtCompletionInstant runs the slow tail of
// slowTailScenario on a sharded kernel: the primary on a shard engine, the
// service and the cloud on the control engine. A task the cloud server
// completes must complete on the primary at that same instant, not at the
// barrier closing the window the cloud computed it in.
func TestShardedCloudDupMergesAtCompletionInstant(t *testing.T) {
	const period = 60
	kernel := sim.NewSharded(2)
	ctl, eng := kernel.Control(), kernel.Shard(1)
	srv := xwhep.New(eng, xwhep.DefaultConfig())
	strategy := Strategy{Trigger: CompletionThreshold{0.5}, Sizing: Conservative{}, Deploy: CloudDuplication}
	svc := NewShardedService(ctl, cloud.NewSimCloud(ctl, sim.NewRNG(7)), Config{Strategy: strategy, MonitorPeriod: period})
	specs := make([]bot.Task, 10)
	for i := range specs {
		specs[i] = bot.Task{ID: i, NOps: 1000}
	}
	if err := svc.RegisterQoSShardTier("alice", "b", "test-env", len(specs), "", srv); err != nil {
		t.Fatal(err)
	}
	srv.Submit(middleware.Batch{ID: "b", Tasks: specs})
	svc.Credits.Deposit("alice", 10)
	if err := svc.OrderQoS("alice", "b", 10); err != nil {
		t.Fatal(err)
	}
	srv.WorkerJoin(&middleware.Worker{ID: 0, Power: 1})

	primary := newCompletionLog("b")
	srv.AddListener(primary)
	// The cloud server is built inside a barrier's monitor tick and fires
	// nothing before the next window, so hooking it between barriers sees
	// every completion it reports.
	onCloud := newCompletionLog("b")
	var sec middleware.Server
	kernel.Run(period, func() bool {
		if s, ok := svc.deploy.secondaries["b"]; ok && sec == nil {
			sec = s
			if sec.Engine() != eng {
				t.Fatal("the cloud server is not on its primary's engine")
			}
			sec.AddListener(onCloud)
		}
		return srv.Done("b")
	})
	if sec == nil {
		t.Fatal("no cloud server was built: the tail was never duplicated")
	}

	if len(onCloud.computed) == 0 {
		t.Fatal("the cloud computed no task: the merge was never exercised")
	}
	for id := range onCloud.computed {
		at := onCloud.at[id]
		got, ok := primary.at[id]
		if !ok {
			t.Fatalf("task %d completed on the cloud at %v but never on the primary", id, at)
		}
		if got != at {
			t.Fatalf("task %d: the cloud completed it at %v, the primary recorded %v", id, at, got)
		}
	}
	if done := eng.Now(); done >= 10000 {
		t.Fatalf("completion %v: cloud duplication did not rescue the tail", done)
	}
}
