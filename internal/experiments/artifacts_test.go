package experiments

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"spequlos/internal/campaign"
	"spequlos/internal/core"
)

func tinyArtifactOpts() ArtifactOptions {
	return ArtifactOptions{
		Spec: MatrixSpec{
			Traces:     []string{"seti", "g5klyo"},
			Bots:       []string{"SMALL"},
			Strategies: []core.Strategy{core.DefaultStrategy()},
		},
		Ablations:  true,
		Comparison: true,
	}
}

// renderAll concatenates every file of the artifact set — the
// value-comparison fingerprint of a derivation.
func renderAll(a Artifacts) string {
	var b bytes.Buffer
	for _, f := range a.Files() {
		data, err := f.Content()
		fmt.Fprintf(&b, "%s %v\n", f.Name, err)
		b.Write(data)
	}
	return b.String()
}

// TestArtifactsExactlyOnce asserts the acceptance criterion: regenerating
// every figure and table through the campaign engine executes each unique
// (scenario, strategy) simulation exactly once, and a second regeneration
// over the same store executes none.
func TestArtifactsExactlyOnce(t *testing.T) {
	p := tiny()
	opts := tinyArtifactOpts()
	opts.Store = campaign.NewResultStore()

	plan := PlanArtifacts(p, opts)
	a, stats, err := BuildArtifacts(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Planned != plan.Len() {
		t.Fatalf("planned %d, expected %d", stats.Planned, plan.Len())
	}
	if stats.Executed != plan.Len() || stats.Cached != 0 {
		t.Fatalf("executed %d of %d unique jobs (%d cached) — not exactly once",
			stats.Executed, plan.Len(), stats.Cached)
	}
	if opts.Store.Len() != plan.Len() {
		t.Fatalf("store holds %d entries, want %d", opts.Store.Len(), plan.Len())
	}

	// The consumers overlap (Fig 1 is a matrix baseline; ablation baselines
	// are matrix cells; the comparison shares the XWHEP/BOINC cells): the
	// deduplicated plan must be strictly smaller than the naive sum.
	naive := 0
	for _, art := range artifacts {
		if art.jobs != nil && art.planned(opts) {
			naive += len(art.jobs(p, opts))
		}
	}
	if plan.Len() >= naive {
		t.Fatalf("plan %d jobs did not dedupe the naive %d", plan.Len(), naive)
	}

	// Second regeneration: all cached, zero simulations, identical values.
	a2, stats2, err := BuildArtifacts(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Executed != 0 || stats2.Cached != plan.Len() {
		t.Fatalf("regeneration executed %d jobs, want 0", stats2.Executed)
	}
	if renderAll(a) != renderAll(a2) {
		t.Fatal("regenerated artifacts differ from first derivation")
	}
}

// TestArtifactsMatchDirectRuns asserts value-identity with the
// pre-campaign builders: results derived from the shared store equal
// fresh, direct simulations of the same scenarios (the old per-builder
// path).
func TestArtifactsMatchDirectRuns(t *testing.T) {
	p := tiny()
	spec := MatrixSpec{
		Traces:     []string{"seti"},
		Bots:       []string{"SMALL"},
		Strategies: []core.Strategy{core.DefaultStrategy()},
	}
	m := must(MatrixFrom(runStore(t, p, spec.Jobs(p)...), p, spec))
	if len(m.Pairs) != 2*p.Offsets { // 2 middleware × 1 trace × 1 bot (tiny has 1 offset)
		t.Fatalf("pairs = %d", len(m.Pairs))
	}
	st := core.DefaultStrategy()
	i := 0
	for _, mw := range Middlewares() {
		for off := 0; off < p.Offsets; off++ {
			sc := Scenario{Profile: p, Middleware: mw, TraceName: "seti", BotClass: "SMALL", Offset: off}
			if direct := Run(sc); !reflect.DeepEqual(m.Pairs[i].Base, direct) {
				t.Fatalf("pair %d baseline diverges from direct run", i)
			}
			scs := sc
			scs.Strategy = &st
			if direct := Run(scs); !reflect.DeepEqual(m.Pairs[i].Speq[st.Label()], direct) {
				t.Fatalf("pair %d strategy run diverges from direct run", i)
			}
			i++
		}
	}
}

// TestArtifactsRoundTrip asserts the satellite criterion: a save→load→
// derive round-trip matches in-memory derivation.
func TestArtifactsRoundTrip(t *testing.T) {
	p := tiny()
	opts := tinyArtifactOpts()
	opts.Store = campaign.NewResultStore()
	a, _, err := BuildArtifacts(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := opts.Store.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded := campaign.NewResultStore()
	if err := loaded.Load(&buf); err != nil {
		t.Fatal(err)
	}
	a2, err := DeriveArtifacts(loaded, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if renderAll(a) != renderAll(a2) {
		t.Fatal("save→load→derive differs from in-memory derivation")
	}
}
