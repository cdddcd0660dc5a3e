package emul

import (
	"context"
	"testing"

	"spequlos/internal/campaign"
)

// TestCrowdConformance is the concurrency acceptance gate: a reduced crowd
// cell (eight interleaved QoS batches on one trace) per middleware must
// agree between the in-process simulator and the deployable HTTP stack —
// batch by batch and field by field — while the Scheduler polls the DG through one aggregated
// query per tick. The tiered run repeats it with three service classes
// contending for a fleet cap of three: agreement then also means the same
// batch won every contended slot on both sides.
func TestCrowdConformance(t *testing.T) {
	run := func(t *testing.T, spec Spec) Report {
		rep, err := RunConformance(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if want := len(campaign.AllMiddlewares()) * len(spec.Strategies); len(rep.Cells) != want {
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
			t.Errorf("cell %s diverged (diff=%q err=%q)", c.Label(), c.Diff, c.Err)
		}
		if !rep.Pass() {
			t.Log(rep.Text())
		}
		return rep
	}
	var untiered, tiered Report
	t.Run("untiered", func(t *testing.T) { untiered = run(t, crowdSpec()) })
	t.Run("tiered", func(t *testing.T) {
		tiered = run(t, tieredCrowdSpec())
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
	// Batch 1 registers off the monitor period's grid, after batch 0 finished
	// and the last tick stopped the ticker: the re-armed ticks keep the
	// registration's phase on both sides, or every later tick parts them.
	t.Run("gap", func(t *testing.T) {
		spec := crowdSpec()
		spec.Profile.Batches, spec.Profile.HorizonDays, spec.Profile.SubmitSpread = 2, 12, 518437
		spec.Strategies = mustStrategies("9C-C-R", "9C-G-F")
		run(t, spec)
	})
	// Greedy releases idle cloud workers, which the deployable Scheduler
	// learns from the one progress poll: on a shared server, each batch's
	// reply must name exactly its own idle instances, and Cloud Duplication
	// puts each batch's workers on a secondary server of its own.
	t.Run("greedy", func(t *testing.T) {
		for _, spec := range []Spec{crowdSpec(), tieredCrowdSpec()} {
			spec.Strategies = mustStrategies("9A-G-D")
			run(t, spec)
		}
	})
}

// tieredCrowdSpec is crowdSpec under tier arbitration: the eight batches span
// the three service classes (campaign.Scenario.SubTier) and a fleet cap of
// three makes them contend, so the cell only conforms if the deployable
// Scheduler admits, tick by tick, the batches the simulator admits.
func tieredCrowdSpec() Spec {
	s := crowdSpec()
	s.Profile.Tiered = true
	s.Profile.FleetCap = 3
	return s
}

// crowdSpec is the concurrency conformance subset CI runs: a reduced crowd
// cell — eight interleaved QoS batches sharing one trace — per middleware,
// proving the HTTP stack agrees with the in-process simulator batch by
// batch while the Scheduler polls the DG through one aggregated query per
// tick. (The full crowd profile runs 200 batches; eight keeps the CI cell
// under a second while still exercising concurrent monitor state.)
func crowdSpec() Spec {
	p := campaign.Crowd()
	p.Batches = 8
	p.SubmitSpread = 1800
	return Spec{
		Profile:     p,
		Middlewares: campaign.AllMiddlewares(),
		Traces:      []string{"seti"},
		Bots:        []string{"SMALL"},
		Strategies:  mustStrategies("9C-C-R"),
	}
}
