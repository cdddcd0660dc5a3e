package bridge

import (
	"testing"

	"spequlos/internal/bot"
	"spequlos/internal/middleware"
	"spequlos/internal/sim"
	"spequlos/internal/xwhep"
)

func batchOf(id string, n int) middleware.Batch {
	tasks := make([]bot.Task, n)
	for i := range tasks {
		tasks[i] = bot.Task{ID: i, NOps: 100}
	}
	return middleware.Batch{ID: id, Tasks: tasks}
}

func TestForwardAndAccount(t *testing.T) {
	eng := sim.NewEngine()
	srv := xwhep.New(eng, xwhep.DefaultConfig())
	b := New(srv)

	if err := b.SubmitGridBatch("egi", batchOf("grid-1", 5)); err != nil {
		t.Fatal(err)
	}
	if err := b.SubmitGridBatch("egi", batchOf("grid-2", 3)); err != nil {
		t.Fatal(err)
	}
	if err := b.SubmitGridBatch("unicore", batchOf("grid-3", 2)); err != nil {
		t.Fatal(err)
	}
	srv.WorkerJoin(&middleware.Worker{ID: 1, Power: 1})
	eng.Run()

	if !srv.Done("grid-1") || !srv.Done("grid-2") || !srv.Done("grid-3") {
		t.Fatal("forwarded batches incomplete")
	}
	stats := b.StatsBySource()
	if len(stats) != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats[0].Source != "egi" || stats[0].Forwarded != 8 || stats[0].Completed != 8 {
		t.Fatalf("egi stats = %+v", stats[0])
	}
	if stats[1].Source != "unicore" || stats[1].Forwarded != 2 || stats[1].Completed != 2 {
		t.Fatalf("unicore stats = %+v", stats[1])
	}
}

func TestValidation(t *testing.T) {
	eng := sim.NewEngine()
	srv := xwhep.New(eng, xwhep.DefaultConfig())
	b := New(srv)
	if err := b.SubmitGridBatch("", batchOf("x", 1)); err == nil {
		t.Fatal("empty source accepted")
	}
	if err := b.SubmitGridBatch("egi", middleware.Batch{ID: "y"}); err == nil {
		t.Fatal("empty batch accepted")
	}
	if err := b.SubmitGridBatch("egi", batchOf("z", 1)); err != nil {
		t.Fatal(err)
	}
	if err := b.SubmitGridBatch("arc", batchOf("z", 1)); err == nil {
		t.Fatal("duplicate forward accepted")
	}
}

func TestQoSIdentifierPreserved(t *testing.T) {
	// A grid-forwarded batch keeps its ID, so a dedicated cloud worker
	// recognizes it on the DG side (the EDGI hybrid path).
	eng := sim.NewEngine()
	srv := xwhep.New(eng, xwhep.DefaultConfig())
	b := New(srv)
	if err := b.SubmitGridBatch("egi", batchOf("qos-bot", 2)); err != nil {
		t.Fatal(err)
	}
	srv.WorkerJoin(middleware.NewCloudWorker(0, 10, "qos-bot"))
	eng.Run()
	if !srv.Done("qos-bot") {
		t.Fatal("dedicated cloud worker did not serve the bridged batch")
	}
}
