package campaign

import (
	"reflect"
	"testing"

	"spequlos/internal/trace"
)

// TestOnDemandCellsDrawAFractionOfTheirTrace runs a quick-shaped serial cell and a
// stress-shaped sharded baseline on on-demand traces: each stops at its last
// completion having drawn under a tenth of the intervals Generate yields for
// the key (so nothing drains the shared trace by accident), and each Entry
// equals the one computed on the fully materialised trace.
func TestOnDemandCellsDrawAFractionOfTheirTrace(t *testing.T) {
	serial := Quick()
	serial.Name = "ondemand-quick" // own seeds, so own entries in the shared cache
	sharded := miniSharded(2)
	sharded.Name, sharded.HorizonDays = "ondemand-stress", 30
	for _, j := range []Job{
		{Scenario: Scenario{Profile: serial, Middleware: BOINC, TraceName: "seti", BotClass: "SMALL"}},
		{Scenario: Scenario{Profile: sharded, Middleware: XWHEP, TraceName: "g5kgre", BotClass: "SMALL"}},
	} {
		sc := j.Scenario
		horizon := sc.Profile.HorizonDays * 86400
		onDemand := Execute(j)
		if !onDemand.Result.Completed {
			t.Fatalf("%s: cell did not complete within its first horizon", sc.Profile.Name)
		}

		shared, err := CachedTrace(sc, horizon)
		if err != nil {
			t.Fatal(err)
		}
		p, _ := trace.ProfileByName(sc.TraceName)
		full := p.Generate(sc.Seed(), horizon, sc.Profile.PoolCap)
		drawn, total := 0, 0
		for i, n := range shared.Nodes {
			drawn += n.Drawn()
			total += len(full.Nodes[i].Intervals)
		}
		t.Logf("%s: drew %d of %d intervals", sc.Profile.Name, drawn, total)
		if drawn == 0 || drawn*10 >= total {
			t.Errorf("%s: the cell left %d of the trace's %d intervals drawn, want under a tenth", sc.Profile.Name, drawn, total)
		}

		// Swap the materialised trace in under the same key and run again.
		SetTraceBudget(1)
		SetTraceBudget(0)
		key := traceKey{name: sc.TraceName, seed: sc.Seed(), horizon: horizon, pool: sc.Profile.PoolCap}
		got, err := sharedTraceCache.get(key, func() (*trace.Trace, error) { return full, nil })
		if err != nil || got != full {
			t.Fatalf("%s: the cache kept the on-demand trace (%v)", sc.Profile.Name, err)
		}
		materialised := Execute(j)
		onDemand.Result, materialised.Result = normalizeSharded(onDemand.Result), normalizeSharded(materialised.Result)
		if !reflect.DeepEqual(onDemand, materialised) {
			t.Errorf("%s: entry on the on-demand trace\n%+v\non the materialised trace\n%+v", sc.Profile.Name, onDemand, materialised)
		}
	}
}
