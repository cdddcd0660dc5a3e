package campaign

import (
	"sync"

	"spequlos/internal/middleware"
	"spequlos/internal/sim"
)

// cellArena is the working set of a serial cell, kept for the next one: the
// engine, the DG server, the trace binding and the completions listener, each
// with the slabs a cell grows — event slots, the server's task, execution and
// worker slabs and pending queues, the binding's worker and node records, the
// completion times. executeOnce takes an arena for a serial cell and gives it
// back reset, so a pooled arena holds nothing of the cell it ran; nothing in
// it is freed while the cell runs. The BOINC server dispatches from a fixed
// shared-memory array of job slots (PAPERS.md); the arena applies that across
// cells.
type cellArena struct {
	eng *sim.Engine
	// srv is the last cell's server, reused by the next cell on the same
	// middleware and replaced by a cell on another one: a campaign plans its
	// cells middleware by middleware.
	srv     reusableServer
	binding middleware.Binding
	done    completions
}

// reusableServer is a DG server that can be emptied and opened on another
// engine: every server built on middleware.Frame.
type reusableServer interface {
	middleware.Server
	Open(eng *sim.Engine)
	Reset()
}

// arenas pools the cell arenas. A campaign worker runs cells back to back and
// gets back the arena it returned; the pool's victim cache keeps it across a
// collection between two cells.
var arenas = sync.Pool{New: func() any { return newArena() }}

func newArena() *cellArena {
	return &cellArena{eng: sim.NewEngine(), done: completions{at: map[string]float64{}, cloud: map[string]int{}}}
}

// server returns a server for the middleware, open on the arena's engine.
func (a *cellArena) server(mw string) middleware.Server {
	if a.srv != nil && a.srv.MiddlewareName() == mw {
		a.srv.Open(a.eng)
	} else {
		a.srv = newServer(a.eng, mw)
	}
	return a.srv
}

// reset empties everything the last cell used, keeping the capacity.
func (a *cellArena) reset() {
	a.binding.Reset()
	if a.srv != nil {
		a.srv.Reset()
	}
	a.done.reset()
	a.eng.Reset()
}

// release resets the arena and returns it to the pool.
func (a *cellArena) release() {
	a.reset()
	arenas.Put(a)
}
