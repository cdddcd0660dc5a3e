// Package bridge simulates the 3G-Bridge (Urbah et al., §3.7): the EDGI
// component that forwards tasks submitted to a regular Grid computing
// element onto a Desktop Grid server, transparently to the Grid user. The
// bridge preserves the SpeQuloS QoS identifier so that grid-submitted BoTs
// can still receive cloud QoS support — the paper's hybrid-infrastructure
// path (EGI → 3G-Bridge → XW@LAL → StratusLab).
package bridge

import (
	"fmt"
	"sort"
	"sync"

	"spequlos/internal/middleware"
)

// Bridge forwards grid batches to a Desktop Grid server and tracks
// per-source accounting (Table 5's "EGI tasks executed on the DGs").
type Bridge struct {
	target middleware.Server

	mu        sync.Mutex
	forwarded map[string]int    // grid source → tasks forwarded
	completed map[string]int    // grid source → tasks completed
	origin    map[string]string // batch id → grid source
}

// New builds a bridge in front of the given DG server. The bridge
// subscribes to completion events to maintain its accounting.
func New(target middleware.Server) *Bridge {
	b := &Bridge{
		target:    target,
		forwarded: map[string]int{},
		completed: map[string]int{},
		origin:    map[string]string{},
	}
	target.AddListener(bridgeListener{b})
	return b
}

type bridgeListener struct{ b *Bridge }

func (l bridgeListener) TaskAssigned(string, int, float64) {}
func (l bridgeListener) TaskCompleted(batchID string, _ int, _ float64) {
	l.b.mu.Lock()
	defer l.b.mu.Unlock()
	if src, ok := l.b.origin[batchID]; ok {
		l.b.completed[src]++
	}
}
func (l bridgeListener) BatchCompleted(string, float64) {}

// SubmitGridBatch forwards a batch arriving from a grid computing element.
// The batch keeps its QoS identifier (batch ID), so SpeQuloS recognizes it
// on the DG side exactly as a natively-submitted BoT.
func (b *Bridge) SubmitGridBatch(gridSource string, batch middleware.Batch) error {
	if gridSource == "" {
		return fmt.Errorf("bridge: grid source required")
	}
	if len(batch.Tasks) == 0 {
		return fmt.Errorf("bridge: empty batch %q", batch.ID)
	}
	b.mu.Lock()
	if _, dup := b.origin[batch.ID]; dup {
		b.mu.Unlock()
		return fmt.Errorf("bridge: batch %q already forwarded", batch.ID)
	}
	b.origin[batch.ID] = gridSource
	b.forwarded[gridSource] += len(batch.Tasks)
	b.mu.Unlock()
	b.target.Submit(batch)
	return nil
}

// Stats summarizes per-source accounting.
type Stats struct {
	Source    string
	Forwarded int
	Completed int
}

// StatsBySource returns the bridge accounting, sorted by source name.
func (b *Bridge) StatsBySource() []Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]Stats, 0, len(b.forwarded))
	for src, n := range b.forwarded {
		out = append(out, Stats{Source: src, Forwarded: n, Completed: b.completed[src]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Source < out[j].Source })
	return out
}
