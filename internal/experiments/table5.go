package experiments

import (
	"fmt"

	"spequlos/internal/campaign"
	"spequlos/internal/core"
)

// Table5 reproduces the University Paris-XI slice of the EDGI
// infrastructure (§5, Fig 8): two XWHEP Desktop Grids — XW@LAL on the
// laboratory's local desktop machines, XW@LRI harvesting Grid'5000
// best-effort nodes (bounded to 200 at a time in the paper) — EGI tasks
// arriving through the 3G-Bridge, and SpeQuloS supporting each DG from a
// different cloud (a local StratusLab/OpenNebula for LAL, Amazon EC2 for
// LRI). The table reports the same counters as the paper: tasks executed
// per DG, EGI-originated tasks, and tasks SpeQuloS ran on each cloud.
type Table5 struct {
	LALTasks        int
	LRITasks        int
	EGITasks        int
	StratusLabTasks int
	EC2Tasks        int
	BoTs            int
	SimDays         float64
}

// table5Days is the EDGI simulation's window.
const table5Days = 4

// Table5Jobs plans the EDGI slice of one seed as two campaign cells, one per
// Desktop Grid. The two DGs share nothing but the clock — each has its own
// pool, cloud and SpeQuloS service — so each is an ordinary serial
// multi-batch cell: XWHEP under the default strategy, BoTs at 5 % of the
// paper's sizes with 10 % of their workload in credits, submissions spread
// evenly over the first 40 % of the window.
//   - XW@LAL: a Notre-Dame-like institutional desktop pool of 180 nodes
//     stands in for the laboratory's machines; 8 RANDOM BoTs stand in for
//     the DART, BNB-Grid and ISDEP workloads.
//   - XW@LRI: Grid'5000 Lyon, bounded to 200 nodes (§5); 4 BIG BoTs.
//
// The profile name carries the seed, so each seed has its own pair of keys.
func Table5Jobs(seed uint64) []campaign.Job {
	st := core.DefaultStrategy()
	site := func(traceName, class string, pool, bots int) campaign.Job {
		p := campaign.Profile{
			Name: fmt.Sprintf("edgi-%d", seed), BotScale: 0.05, Offsets: 1, PoolCap: pool,
			HorizonDays: table5Days, CreditFraction: 0.10,
			Batches: bots, SubmitSpread: 0.4 * table5Days * 86400,
		}
		return campaign.Job{Scenario: campaign.Scenario{
			Profile: p, Middleware: campaign.XWHEP, TraceName: traceName, BotClass: class, Strategy: &st,
		}}
	}
	return []campaign.Job{site("nd", "RANDOM", 180, 8), site("g5klyo", "BIG", 200, 4)}
}

// Table5From reads Table 5 off the two EDGI cells of a seed: each DG's
// column sums the sizes of its completed BoTs, each cloud's the tasks of
// those BoTs a cloud worker completed. Every other XW@LAL BoT (the odd
// ones) arrives from EGI: the 3G-Bridge forwards a batch to XW@LAL
// unchanged, QoS identifier included, so an EGI BoT is an XW@LAL BoT that
// the EGI column also counts.
func Table5From(store *campaign.ResultStore, seed uint64) (Table5, error) {
	t5 := Table5{SimDays: table5Days}
	for site, j := range Table5Jobs(seed) {
		e, ok := store.Get(j.Key())
		if !ok {
			return t5, fmt.Errorf("experiments: store missing Table 5 cell %s", j.Key())
		}
		for k, b := range e.Result.Batches {
			t5.BoTs++
			switch {
			case !b.Completed:
			case site == 0: // XW@LAL
				t5.LALTasks += b.Size
				t5.StratusLabTasks += b.CloudTasks
				if k%2 == 1 {
					t5.EGITasks += b.Size
				}
			default: // XW@LRI
				t5.LRITasks += b.Size
				t5.EC2Tasks += b.CloudTasks
			}
		}
	}
	return t5, nil
}

// BuildTable5 runs the two EDGI cells of a seed and reads Table 5 off them.
func BuildTable5(seed uint64) (Table5, error) {
	store := campaign.NewResultStore()
	for _, j := range Table5Jobs(seed) {
		store.Put(campaign.Execute(j))
	}
	return Table5From(store, seed)
}

// Render prints the Table 5 layout.
func (t Table5) Render() string {
	tbl := TextTable{
		Title: fmt.Sprintf("Table 5 — EDGI deployment counters (%d BoTs over %.0f simulated days)",
			t.BoTs, t.SimDays),
		Headers: []string{"XW@LAL", "XW@LRI", "EGI", "StratusLab", "EC2"},
	}
	tbl.AddRow(fmt.Sprint(t.LALTasks), fmt.Sprint(t.LRITasks), fmt.Sprint(t.EGITasks),
		fmt.Sprint(t.StratusLabTasks), fmt.Sprint(t.EC2Tasks))
	return tbl.String()
}
