package experiments

import (
	"math"
	"reflect"
	"testing"

	"spequlos/internal/campaign"
	"spequlos/internal/core"
)

// table4TwoPass is the reference scorer Table4From replaced: one pass over
// the store records every run, a second judges each run against its
// environment's α with the ±20 % rule written out here.
func table4TwoPass(store *campaign.ResultStore, p Profile, spec MatrixSpec, label string) (Table4, error) {
	cal := core.NewCalibration()
	err := EachPair(store, p, spec, func(pair Pair) error {
		if r, ok := pair.Speq[label]; ok && r.Completed && r.TC50Base > 0 {
			cal.Record(r.EnvKey(), r.TC50Base, r.CompletionTime)
		}
		return nil
	})
	if err != nil {
		return Table4{}, err
	}
	hit := map[string]map[string][]bool{}
	err = EachPair(store, p, spec, func(pair Pair) error {
		r, okRun := pair.Speq[label]
		if !okRun || !r.Completed || r.TC50Base <= 0 {
			return nil
		}
		predicted := cal.Fit(r.EnvKey()).Alpha * r.TC50Base
		ok := predicted > 0 && math.Abs(r.CompletionTime-predicted) <= core.PredictionTolerance*predicted
		if hit[r.TraceName] == nil {
			hit[r.TraceName] = map[string][]bool{}
		}
		key := r.BotClass + "/" + r.Middleware
		hit[r.TraceName][key] = append(hit[r.TraceName][key], ok)
		hit[r.TraceName]["Mixed"] = append(hit[r.TraceName]["Mixed"], ok)
		return nil
	})
	if err != nil {
		return Table4{}, err
	}
	out := Table4{Strategy: label, Success: map[string]map[string]float64{}}
	var allHits, allN int
	for tn, byKey := range hit {
		out.Success[tn] = map[string]float64{}
		for key, oks := range byKey {
			n := 0
			for _, v := range oks {
				if v {
					n++
				}
			}
			out.Success[tn][key] = float64(n) / float64(len(oks))
			if key == "Mixed" {
				allHits += n
				allN += len(oks)
			}
		}
	}
	if allN > 0 {
		out.Overall = float64(allHits) / float64(allN)
	}
	return out, nil
}

// Table4From scores the golden spec's campaign as the two-pass reference
// does, value for value.
func TestTable4MatchesTwoPassOnGoldenSpec(t *testing.T) {
	p, opts := goldenSpec()
	store := runStore(t, p, opts.Spec.Jobs(p)...)
	label := opts.Spec.Strategies[0].Label()
	got := must(Table4From(store, p, opts.Spec, label))
	want := must(table4TwoPass(store, p, opts.Spec, label))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Table4From = %+v\nthe two-pass reference = %+v", got, want)
	}
	if len(got.Success) == 0 {
		t.Fatal("the golden spec scored no run")
	}
}

// On a synthetic store: runs whose ratio to α is exactly 0.8 or 1.2 score as
// hits (the band is inclusive), an environment holds a single run, and runs
// that did not complete or have no tc(0.5) are not scored.
func TestTable4MatchesTwoPassOnSyntheticStore(t *testing.T) {
	p := tiny()
	p.Offsets = 5
	strategy := core.DefaultStrategy()
	label := strategy.Label()
	spec := MatrixSpec{
		Middlewares: []string{BOINC, XWHEP},
		Traces:      []string{"seti", "g5klyo"},
		Bots:        []string{"SMALL", "BIG"},
		Strategies:  []core.Strategy{strategy},
	}
	// Per environment, the (base, actual) of its five offsets: base 0 is a
	// run that did not complete, a negative base one with no tc(0.5). Every
	// other environment's runs all read (1000, 1100).
	runs := map[string][5][2]float64{
		// α = 1: 80 and 120 sit on the band's edges, 125 outside it.
		"BOINC/seti/SMALL": {{100, 100}, {100, 80}, {100, 120}, {100, 100}, {100, 125}},
		// One completed run: α is its own ratio, a hit.
		"XWHEP/seti/SMALL": {{50, 77}, {0, 0}, {0, 0}, {0, 0}, {0, 0}},
		// Spread ratios with unequal weights.
		"BOINC/g5klyo/BIG": {{300, 330}, {10, 40}, {200, 150}, {400, 500}, {20, 21}},
		// A completed run with no tc(0.5) is not scored.
		"XWHEP/g5klyo/SMALL": {{-1, 900}, {600, 610}, {600, 700}, {600, 480}, {600, 900}},
	}
	store := campaign.NewResultStore()
	for _, sc := range spec.scenarios(p) {
		base := campaign.Job{Scenario: sc}
		store.Put(campaign.Entry{Key: base.Key(), Result: Result{Middleware: sc.Middleware,
			TraceName: sc.TraceName, BotClass: sc.BotClass, Offset: sc.Offset, Completed: true, CompletionTime: 1000}})
		st := strategy
		sc.Strategy = &st
		r := Result{Middleware: sc.Middleware, TraceName: sc.TraceName, BotClass: sc.BotClass,
			Offset: sc.Offset, Strategy: label, Completed: true, TC50Base: 1000, CompletionTime: 1100}
		if env, ok := runs[r.EnvKey()]; ok {
			pair := env[sc.Offset]
			r.TC50Base, r.CompletionTime, r.Completed = max(pair[0], 0), pair[1], pair[0] != 0
		}
		store.Put(campaign.Entry{Key: campaign.Job{Scenario: sc}.Key(), Result: r})
	}
	got := must(Table4From(store, p, spec, label))
	want := must(table4TwoPass(store, p, spec, label))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Table4From = %+v\nthe two-pass reference = %+v", got, want)
	}
	for _, c := range []struct {
		trace, key string
		rate       float64
	}{
		{"seti", "SMALL/BOINC", 0.8},
		{"seti", "SMALL/XWHEP", 1},
		{"g5klyo", "BIG/BOINC", 0.6},
		{"g5klyo", "SMALL/XWHEP", 0.5},
	} {
		if v := got.Success[c.trace][c.key]; v != c.rate {
			t.Errorf("%s %s: success rate %v, want %v", c.trace, c.key, v, c.rate)
		}
	}
}
