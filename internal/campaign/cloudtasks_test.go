package campaign

import (
	"testing"

	"spequlos/internal/core"
)

// TestCloudTasksCountCloudResults checks BatchResult.CloudTasks on a serial
// multi-batch cell: a baseline runs nothing in the cloud; under a strategy, a
// batch without cloud instances counts no cloud task, one with instances
// counts at most its size, and some batch counts at least one. (Not every
// batch with instances: its DG may finish the tail while the instances
// boot.) Under Cloud Duplication (9C-C-D) no cloud worker joins the batch's
// DG server: its cloud workers compute on the cloud server, and their
// results reach the DG server only through the merge. So a 9C-C-D batch
// with cloud tasks shows that merged results count.
func TestCloudTasksCountCloudResults(t *testing.T) {
	p := Profile{
		Name: "cloudtasks", BotScale: 0.02, Offsets: 1, PoolCap: 160,
		HorizonDays: 6, CreditFraction: 0.10, Batches: 5, SubmitSpread: 1800,
	}
	for _, mw := range AllMiddlewares() {
		sc := Scenario{Profile: p, Middleware: mw, TraceName: "seti", BotClass: "SMALL"}
		for _, b := range Execute(Job{Scenario: sc}).Result.Batches {
			if b.CloudTasks != 0 {
				t.Errorf("%s baseline: batch %s counts %d cloud tasks", mw, b.BatchID, b.CloudTasks)
			}
		}
		for _, label := range []string{"9C-C-R", "9C-C-D"} {
			st, err := core.StrategyByLabel(label)
			if err != nil {
				t.Fatal(err)
			}
			sc.Strategy = &st
			helped := 0
			for _, b := range Execute(Job{Scenario: sc}).Result.Batches {
				switch {
				case b.Instances == 0 && b.CloudTasks != 0:
					t.Errorf("%s %s: batch %s started no instance but counts %d cloud tasks", mw, label, b.BatchID, b.CloudTasks)
				case b.CloudTasks < 0 || b.CloudTasks > b.Size:
					t.Errorf("%s %s: batch %s started %d instances and counts %d cloud tasks of %d",
						mw, label, b.BatchID, b.Instances, b.CloudTasks, b.Size)
				}
				if b.CloudTasks > 0 {
					helped++
				}
			}
			if helped == 0 {
				t.Errorf("%s %s: no batch had a task completed in the cloud", mw, label)
			}
		}
	}
}
