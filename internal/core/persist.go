package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"slices"
)

// The paper's prototype persists module state in MySQL so the services can
// restart without losing QoS history (§3.7). This file provides the
// equivalent: State, the three modules' state as one JSON image with a
// section per module, which spequlosd writes after each tick and restores.

// State is the module state a SpeQuloS deployment keeps across restarts. Its
// image holds each batch's series, not its samples (BatchInfo), so a batch
// costs the image the same however many ticks it lived; an image of an
// older version, which held every sample, is refused.
type State struct {
	Information *Information
	Credits     *CreditSystem
	Calibration *Calibration
}

// NewState returns empty modules.
func NewState() State {
	return State{Information: NewInformation(), Credits: NewCreditSystem(), Calibration: NewCalibration()}
}

// stateImage is the serialized State; a missing section decodes to nil.
type stateImage struct {
	Information *informationSnapshot `json:"information"`
	Credits     *creditSnapshot      `json:"credits"`
	Calibration *calibrationSnapshot `json:"calibration"`
}

// WriteJSON writes the image as compact JSON. It holds the three modules'
// read locks at once, so the image is the state as of one instant.
func (s State) WriteJSON(w io.Writer) error {
	s.Information.mu.RLock()
	defer s.Information.mu.RUnlock()
	s.Credits.mu.RLock()
	defer s.Credits.mu.RUnlock()
	s.Calibration.mu.RLock()
	defer s.Calibration.mu.RUnlock()
	img := stateImage{s.Information.snapshot(), s.Credits.snapshot(), s.Calibration.snapshot()}
	return json.NewEncoder(w).Encode(img)
}

// ReadState restores an image written by WriteJSON. Every section must be
// present and valid; anything else is an error, never an empty module.
func ReadState(r io.Reader) (State, error) {
	var img stateImage
	data, err := io.ReadAll(r)
	if err == nil {
		err = json.Unmarshal(data, &img)
	}
	if err == nil && (img.Information == nil || img.Credits == nil || img.Calibration == nil) {
		err = errors.New("the information, credits and calibration sections are all required")
	}
	s := NewState()
	if err == nil {
		err = errors.Join(s.Information.restore(img.Information), s.Credits.restore(img.Credits),
			s.Calibration.restore(img.Calibration))
	}
	if err != nil {
		return State{}, fmt.Errorf("core: reading state: %w", err)
	}
	return s, nil
}

// informationSnapshot is the serialized Information archive.
type informationSnapshot struct {
	Batches []batchSnapshot `json:"batches"`
}

// batchSnapshot is one batch's series, as BatchInfo keeps it: a batch costs
// the image the same whatever the number of samples it took, and restoring
// replays nothing.
type batchSnapshot struct {
	BatchID     string  `json:"batch_id"`
	EnvKey      string  `json:"env_key"`
	Size        int     `json:"size"`
	SubmittedAt float64 `json:"submitted_at"`
	SampleCount int     `json:"sample_count"`
	Last        Sample  `json:"last"`
	PeakWorkers int     `json:"peak_workers"`
	CompletedAt float64 `json:"completed_at"`
	// TC and TA are tc(i%) and ta(i%) for i from 1 to the highest percent
	// reached.
	TC []float64 `json:"tc"`
	TA []float64 `json:"ta"`
	// Samples is the per-sample history of an older layout; an image that
	// holds one is refused, not read as a batch without history.
	Samples json.RawMessage `json:"samples,omitempty"`
}

// snapshot serializes the archive under the caller's read lock.
func (in *Information) snapshot() *informationSnapshot {
	snap := &informationSnapshot{}
	for _, id := range slices.Sorted(maps.Keys(in.batches)) {
		bi := in.batches[id]
		snap.Batches = append(snap.Batches, batchSnapshot{
			BatchID: bi.BatchID, EnvKey: bi.EnvKey, Size: bi.Size, SubmittedAt: bi.SubmittedAt,
			SampleCount: bi.samples, Last: bi.last, PeakWorkers: bi.PeakWorkers, CompletedAt: bi.CompletedAt,
			TC: bi.tcAt[1 : bi.tcHi+1], TA: bi.taAt[1 : bi.taHi+1],
		})
	}
	return snap
}

// restore loads an archive section into an empty archive, each batch's
// series as written. The first-half maximum is a cache of the milestones: a
// tick recomputes it until the batch's next sample fixes it again.
func (in *Information) restore(snap *informationSnapshot) error {
	for _, bs := range snap.Batches {
		reached := func(ts []float64) bool {
			return len(ts) <= milestones && (bs.Size > 0 || len(ts) == 0) && !slices.ContainsFunc(ts, func(t float64) bool { return t < 0 })
		}
		switch {
		case bs.Samples != nil:
			return fmt.Errorf("batch %q holds a per-sample history (\"samples\"), the layout of an older version, which is not read", bs.BatchID)
		case bs.SampleCount < 0:
			return fmt.Errorf("batch %q: negative sample count %d", bs.BatchID, bs.SampleCount)
		case !reached(bs.TC) || !reached(bs.TA):
			return fmt.Errorf("batch %q: more milestones than its size %d allows, or one at a negative time", bs.BatchID, bs.Size)
		}
		bi, err := in.Track(bs.BatchID, bs.EnvKey, bs.Size, bs.SubmittedAt)
		if err != nil {
			return err
		}
		bi.samples, bi.last, bi.PeakWorkers, bi.CompletedAt = bs.SampleCount, bs.Last, bs.PeakWorkers, bs.CompletedAt
		bi.tcHi = copy(bi.tcAt[1:], bs.TC)
		bi.taHi = copy(bi.taAt[1:], bs.TA)
	}
	return nil
}

// creditSnapshot is the serialized Credit System state.
type creditSnapshot struct {
	Accounts []Account `json:"accounts"`
	Orders   []Order   `json:"orders"`
}

// snapshot serializes accounts and orders under the caller's read lock.
func (cs *CreditSystem) snapshot() *creditSnapshot {
	snap := &creditSnapshot{}
	for _, u := range slices.Sorted(maps.Keys(cs.accounts)) {
		snap.Accounts = append(snap.Accounts, *cs.accounts[u])
	}
	for _, id := range slices.Sorted(maps.Keys(cs.orders)) {
		snap.Orders = append(snap.Orders, *cs.orders[id])
	}
	return snap
}

// restore loads a credit section into an empty ledger, refusing what would
// invent or drop credits: a second entry for a user or batch would replace
// the first, a negative amount or an overbilled order would mint credits.
func (cs *CreditSystem) restore(snap *creditSnapshot) error {
	for _, a := range snap.Accounts {
		if cs.accounts[a.User] != nil || a.Balance < 0 || a.Spent < 0 {
			return fmt.Errorf("credits: account %+v: a second one for the user, or a negative amount", a)
		}
		cs.accounts[a.User] = &a
	}
	for _, o := range snap.Orders {
		if cs.orders[o.BatchID] != nil || o.Allocated < 0 || o.Billed < 0 || o.Billed > o.Allocated {
			return fmt.Errorf("credits: order %+v: a second one for the batch, a negative amount, or billed past its allocation", o)
		}
		cs.orders[o.BatchID] = &o
	}
	return nil
}

// calibrationSnapshot is the serialized per-environment fit history.
type calibrationSnapshot struct {
	Environments []envSnapshot `json:"environments"`
}

type envSnapshot struct {
	EnvKey  string    `json:"env_key"`
	Bases   []float64 `json:"bases"`
	Actuals []float64 `json:"actuals"`
}

// snapshot serializes the calibration history under the caller's read lock
// (α is refitted on load).
func (c *Calibration) snapshot() *calibrationSnapshot {
	snap := &calibrationSnapshot{}
	for _, k := range slices.Sorted(maps.Keys(c.byEnv)) {
		e := c.byEnv[k]
		snap.Environments = append(snap.Environments, envSnapshot{
			EnvKey: k, Bases: e.bases, Actuals: e.actuals,
		})
	}
	return snap
}

// restore loads a calibration section into an empty store, fitting each
// environment's α once over its whole archive.
func (c *Calibration) restore(snap *calibrationSnapshot) error {
	for _, e := range snap.Environments {
		if len(e.Bases) != len(e.Actuals) {
			return fmt.Errorf("calibration: environment %q has mismatched lengths", e.EnvKey)
		}
		c.load(e.EnvKey, e.Bases, e.Actuals)
	}
	return nil
}
