package emul

import (
	"context"
	"testing"

	"spequlos/internal/campaign"
)

// TestCrowdConformance is the concurrency acceptance gate: a reduced crowd
// cell (eight interleaved QoS batches on one trace) per middleware must
// agree between the in-process simulator and the deployable HTTP stack —
// batch by batch — on trigger tick, fleet size, credits billed and
// completion time, while the Scheduler polls the DG through one aggregated
// query per tick. The tiered run repeats it with three service classes
// contending for a fleet cap of three: agreement then also means the same
// batch won every contended slot on both sides.
func TestCrowdConformance(t *testing.T) {
	run := func(t *testing.T, spec Spec) Report {
		rep, err := RunConformance(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if want := len(campaign.AllMiddlewares()); len(rep.Cells) != want {
			t.Fatalf("cells: %d, want %d", len(rep.Cells), want)
		}
		for _, c := range rep.Cells {
			if len(c.Sim.Batches) != spec.Profile.Batches || len(c.Emul.Batches) != spec.Profile.Batches {
				t.Errorf("cell %s carries %d/%d batch metrics, want %d",
					c.Label(), len(c.Sim.Batches), len(c.Emul.Batches), spec.Profile.Batches)
			}
			if c.Pass {
				continue
			}
			t.Errorf("cell %s diverged (trigger=%v instances=%v credits=%v completion=%v err=%q)",
				c.Label(), c.TriggerMatch, c.InstancesMatch, c.CreditsMatch, c.CompletionMatch, c.Err)
		}
		if !rep.Pass() {
			t.Log(rep.Text())
		}
		return rep
	}
	var untiered, tiered Report
	t.Run("untiered", func(t *testing.T) { untiered = run(t, CrowdSpec()) })
	t.Run("tiered", func(t *testing.T) {
		tiered = run(t, TieredCrowdSpec())
		// The fleet cap must have bitten, or the tiered run proves nothing the
		// untiered one does not.
		delayed := 0
		for i, c := range tiered.Cells {
			for k, b := range c.Sim.Batches {
				if i < len(untiered.Cells) && k < len(untiered.Cells[i].Sim.Batches) &&
					b.TriggeredAt != untiered.Cells[i].Sim.Batches[k].TriggeredAt {
					delayed++
				}
			}
		}
		if delayed == 0 {
			t.Error("no batch started at another tick than without the fleet cap: admission was never contended")
		}
	})
}
