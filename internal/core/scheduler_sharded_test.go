package core

import (
	"math"
	"testing"

	"spequlos/internal/bot"
	"spequlos/internal/cloud"
	"spequlos/internal/middleware"
	"spequlos/internal/sim"
	"spequlos/internal/xwhep"
)

// completionLog records when a server reports each task of a batch
// completed, and which of them a cloud worker computed.
type completionLog struct {
	batchID  string
	at       map[int]float64
	computed map[int]bool
}

func newCompletionLog(batchID string) *completionLog {
	return &completionLog{batchID: batchID, at: map[int]float64{}, computed: map[int]bool{}}
}

func (l *completionLog) TaskAssigned(string, int, float64) {}
func (l *completionLog) TaskCompleted(batchID string, taskID int, by *middleware.Worker, at float64) {
	if batchID == l.batchID {
		l.at[taskID] = at
		if by != nil && by.Cloud {
			l.computed[taskID] = true
		}
	}
}
func (l *completionLog) BatchCompleted(string, float64) {}

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
	svc := NewService(ctl, cloud.NewSimCloud(ctl, sim.NewRNG(7)), Config{Strategy: strategy, MonitorPeriod: period})
	specs := make([]bot.Task, 10)
	for i := range specs {
		specs[i] = bot.Task{ID: i, NOps: 1000}
	}
	svc.Credits.Deposit("alice", 10)
	if err := svc.RegisterQoS("alice", "b", "test-env", len(specs), "", 10, srv); err != nil {
		t.Fatal(err)
	}
	srv.Submit(middleware.Batch{ID: "b", Tasks: specs})
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

// finalizeProbe records a batch's BatchCompleted instant and whether the
// service had finalized the batch by then. Attached after the service's
// listener, it sees what the service did at the completion.
type finalizeProbe struct {
	svc       *Service
	batchID   string
	at        float64
	finalized bool
}

func (p *finalizeProbe) TaskAssigned(string, int, float64)                      {}
func (p *finalizeProbe) TaskCompleted(string, int, *middleware.Worker, float64) {}
func (p *finalizeProbe) BatchCompleted(batchID string, at float64) {
	if batchID == p.batchID {
		p.at, p.finalized = at, p.svc.mon.Batches[batchID].Finalized
	}
}

// TestFinalizeInstantFollowsTheServersEngine: one service over two servers,
// one on the service's own engine and one on a shard engine. The first batch
// is finalized at its BatchCompleted instant; the second only marks itself
// there, inside the shard's window, and is finalized by the next monitor
// tick, at a barrier. The last sample of a batch is its finalizing tick's, so
// its completion time tells the instant.
func TestFinalizeInstantFollowsTheServersEngine(t *testing.T) {
	const period = 60
	kernel := sim.NewSharded(2)
	ctl := kernel.Control()
	svc := NewService(ctl, cloud.NewSimCloud(ctl, sim.NewRNG(7)), Config{Strategy: DefaultStrategy(), MonitorPeriod: period})
	probes := map[string]*finalizeProbe{}
	for _, b := range []struct {
		id   string
		eng  *sim.Engine
		nops float64
	}{{"own", ctl, 1010}, {"shard", kernel.Shard(1), 1030}} {
		srv := xwhep.New(b.eng, xwhep.DefaultConfig())
		specs := make([]bot.Task, 3)
		for i := range specs {
			specs[i] = bot.Task{ID: i, NOps: b.nops}
		}
		if err := svc.RegisterQoS("u", b.id, "env", len(specs), "", 0, srv); err != nil {
			t.Fatal(err)
		}
		probes[b.id] = &finalizeProbe{svc: svc, batchID: b.id}
		srv.AddListener(probes[b.id])
		srv.Submit(middleware.Batch{ID: b.id, Tasks: specs})
		srv.WorkerJoin(&middleware.Worker{ID: 0, Power: 1})
	}
	kernel.Run(period, nil) // drains: the ticker stops with the last live batch

	own, shard := probes["own"], probes["shard"]
	if own.at != 3030 || shard.at != 3090 {
		t.Fatalf("completions at %v and %v, want 3030 and 3090", own.at, shard.at)
	}
	if !own.finalized {
		t.Fatal("the batch on the service's engine was not finalized at its completion instant")
	}
	if got := svc.mon.Batches["own"].bi.CompletedAt; got != own.at {
		t.Fatalf("the batch on the service's engine was finalized at %v, want its completion %v", got, own.at)
	}
	if shard.finalized {
		t.Fatal("the batch on a shard engine was finalized inside the shard's window")
	}
	b := svc.mon.Batches["shard"]
	if next := math.Ceil(shard.at/period) * period; !b.Finalized || b.bi.CompletedAt != next {
		t.Fatalf("the batch on a shard engine: finalized %v at %v, want at the next tick %v", b.Finalized, b.bi.CompletedAt, next)
	}
}
