package core

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// The paper's prototype persists module state in MySQL so the services can
// restart without losing QoS history (§3.7). This file provides the
// equivalent: JSON snapshots of the Information archive, the Credit System
// and the Oracle calibration, loadable into fresh instances.

// informationSnapshot is the serialized Information archive.
type informationSnapshot struct {
	Batches []batchSnapshot `json:"batches"`
}

type batchSnapshot struct {
	BatchID     string   `json:"batch_id"`
	EnvKey      string   `json:"env_key"`
	Size        int      `json:"size"`
	SubmittedAt float64  `json:"submitted_at"`
	Samples     []Sample `json:"samples"`
}

// WriteJSON serializes the archive. Milestone caches are derived data and
// are rebuilt on load by replaying samples.
func (in *Information) WriteJSON(w io.Writer) error {
	in.mu.RLock()
	defer in.mu.RUnlock()
	snap := informationSnapshot{}
	ids := make([]string, 0, len(in.batches))
	for id := range in.batches {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		bi := in.batches[id]
		snap.Batches = append(snap.Batches, batchSnapshot{
			BatchID: bi.BatchID, EnvKey: bi.EnvKey, Size: bi.Size,
			SubmittedAt: bi.SubmittedAt, Samples: bi.Samples,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}

// ReadInformation loads an archive snapshot, replaying every sample so the
// milestone caches and completion markers are reconstructed exactly.
func ReadInformation(r io.Reader) (*Information, error) {
	var snap informationSnapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("core: reading information snapshot: %w", err)
	}
	in := NewInformation()
	for _, bs := range snap.Batches {
		bi, err := in.Track(bs.BatchID, bs.EnvKey, bs.Size, bs.SubmittedAt)
		if err != nil {
			return nil, err
		}
		for _, s := range bs.Samples {
			bi.AddSampleWorkers(bs.SubmittedAt+s.T, s.Completed, s.Assigned, s.Queued, s.Running, s.Workers)
		}
	}
	return in, nil
}

// creditSnapshot is the serialized Credit System state.
type creditSnapshot struct {
	Accounts []Account `json:"accounts"`
	Orders   []Order   `json:"orders"`
}

// WriteJSON serializes accounts and orders.
func (cs *CreditSystem) WriteJSON(w io.Writer) error {
	cs.mu.RLock()
	defer cs.mu.RUnlock()
	snap := creditSnapshot{}
	users := make([]string, 0, len(cs.accounts))
	for u := range cs.accounts {
		users = append(users, u)
	}
	sort.Strings(users)
	for _, u := range users {
		snap.Accounts = append(snap.Accounts, *cs.accounts[u])
	}
	ids := make([]string, 0, len(cs.orders))
	for id := range cs.orders {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		snap.Orders = append(snap.Orders, *cs.orders[id])
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}

// ReadCreditSystem loads a Credit System snapshot.
func ReadCreditSystem(r io.Reader) (*CreditSystem, error) {
	var snap creditSnapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("core: reading credit snapshot: %w", err)
	}
	cs := NewCreditSystem()
	for _, a := range snap.Accounts {
		cs.accounts[a.User] = &a
	}
	for _, o := range snap.Orders {
		cs.orders[o.BatchID] = &o
	}
	return cs, nil
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

// WriteJSON serializes the calibration history (α is refitted on load).
func (c *Calibration) WriteJSON(w io.Writer) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	snap := calibrationSnapshot{}
	keys := make([]string, 0, len(c.byEnv))
	for k := range c.byEnv {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e := c.byEnv[k]
		snap.Environments = append(snap.Environments, envSnapshot{
			EnvKey: k, Bases: e.bases, Actuals: e.actuals,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}

// ReadCalibration loads a calibration snapshot, fitting each environment's α
// once over its whole archive.
func ReadCalibration(r io.Reader) (*Calibration, error) {
	var snap calibrationSnapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("core: reading calibration snapshot: %w", err)
	}
	c := NewCalibration()
	for _, e := range snap.Environments {
		if len(e.Bases) != len(e.Actuals) {
			return nil, fmt.Errorf("core: calibration snapshot for %q has mismatched lengths", e.EnvKey)
		}
		c.load(e.EnvKey, e.Bases, e.Actuals)
	}
	return c, nil
}
