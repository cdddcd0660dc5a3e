package experiments

import (
	"fmt"

	"spequlos/internal/campaign"
	"spequlos/internal/core"
)

// Pair bundles a baseline run with its same-seed SpeQuloS runs, keyed by
// strategy label.
type Pair struct {
	Base Result
	Speq map[string]Result
}

// Matrix is the full outcome of a matrix campaign.
type Matrix struct {
	Profile    Profile
	Strategies []string // labels, in order
	Pairs      []Pair
}

// MatrixSpec restricts a campaign. Zero-value fields mean "all".
type MatrixSpec struct {
	Middlewares []string
	Traces      []string
	Bots        []string
	Strategies  []core.Strategy
}

func (s MatrixSpec) middlewares() []string {
	if len(s.Middlewares) == 0 {
		return Middlewares()
	}
	return s.Middlewares
}
func (s MatrixSpec) traces() []string {
	if len(s.Traces) == 0 {
		return TraceNames()
	}
	return s.Traces
}
func (s MatrixSpec) bots() []string {
	if len(s.Bots) == 0 {
		return BotClasses()
	}
	return s.Bots
}

func (s MatrixSpec) labels() []string {
	labels := make([]string, len(s.Strategies))
	for i, st := range s.Strategies {
		labels[i] = st.Label()
	}
	return labels
}

// scenarios enumerates the cells of the spec in deterministic order.
func (s MatrixSpec) scenarios(p Profile) []Scenario {
	var out []Scenario
	for _, mw := range s.middlewares() {
		for _, tn := range s.traces() {
			for _, bc := range s.bots() {
				for off := 0; off < p.Offsets; off++ {
					out = append(out, Scenario{
						Profile: p, Middleware: mw, TraceName: tn, BotClass: bc, Offset: off,
					})
				}
			}
		}
	}
	return out
}

// Jobs plans the campaign jobs of the spec: for every cell the baseline run
// and one SpeQuloS run per strategy, all from the same seed.
func (s MatrixSpec) Jobs(p Profile) []campaign.Job {
	var jobs []campaign.Job
	for _, sc := range s.scenarios(p) {
		jobs = append(jobs, campaign.Job{Scenario: sc})
		for _, st := range s.Strategies {
			st := st
			scs := sc
			scs.Strategy = &st
			jobs = append(jobs, campaign.Job{Scenario: scs})
		}
	}
	return jobs
}

// EachPair streams the spec's cells straight from the store in
// deterministic order, building one Pair at a time — the derivation path
// for paper-scale campaigns, which never materializes the whole matrix. It
// fails on the first cell missing from the store.
func EachPair(store *campaign.ResultStore, p Profile, spec MatrixSpec, fn func(Pair) error) error {
	for _, sc := range spec.scenarios(p) {
		base, ok := store.Result(campaign.Job{Scenario: sc})
		if !ok {
			return fmt.Errorf("experiments: store missing baseline %s", campaign.Job{Scenario: sc}.Key())
		}
		pair := Pair{Base: base, Speq: map[string]Result{}}
		for _, st := range spec.Strategies {
			st := st
			scs := sc
			scs.Strategy = &st
			r, ok := store.Result(campaign.Job{Scenario: scs})
			if !ok {
				return fmt.Errorf("experiments: store missing %s", campaign.Job{Scenario: scs}.Key())
			}
			pair.Speq[st.Label()] = r
		}
		if err := fn(pair); err != nil {
			return err
		}
	}
	return nil
}

// ValidateSpec checks that the store holds every cell of the spec without
// materializing anything — the completeness gate the streaming derivation
// path runs where the materialized path built the Matrix.
func ValidateSpec(store *campaign.ResultStore, p Profile, spec MatrixSpec) error {
	return EachPair(store, p, spec, func(Pair) error { return nil })
}

// MatrixFrom derives the Matrix view of a spec from an already-executed
// result store. It fails if the store is missing any cell of the spec. The
// figure and table builders do not read it: they stream per cell through
// EachPair instead of materializing every pair.
func MatrixFrom(store *campaign.ResultStore, p Profile, spec MatrixSpec) (Matrix, error) {
	m := Matrix{Profile: p, Strategies: spec.labels()}
	err := EachPair(store, p, spec, func(pair Pair) error {
		m.Pairs = append(m.Pairs, pair)
		return nil
	})
	if err != nil {
		return Matrix{}, err
	}
	return m, nil
}
