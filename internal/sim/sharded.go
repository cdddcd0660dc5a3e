package sim

import (
	"fmt"
	"time"
)

// Sharded is the multi-core simulation kernel: N shard engines — each with
// its own event heap — plus one control engine, advanced together in
// tick-barrier windows.
//
// The execution contract is conservative parallel discrete-event
// simulation with barrier synchronization:
//
//   - Entities hosted on different shards must not interact directly within
//     a window. The campaign layer guarantees this by giving every QoS
//     batch its own middleware server (and, under CloudDuplication, its own
//     cloud-hosted server on the same shard engine) and a stable-hashed,
//     dedicated slice of the availability trace, then mapping batches onto
//     shards.
//   - Cross-shard effects (the SpeQuloS monitor tick, cloud fleet changes,
//     credit billing, aggregated progress polling) live on the control
//     engine and run serially at each barrier, in deterministic order,
//     while every shard clock sits exactly on the barrier instant.
//
// Under that contract the results are byte-identical for ANY shard count,
// including one: the barrier sequence is derived from the merged
// next-event time, which does not depend on how events are distributed
// across heaps, and shard-local event orderings only interleave events of
// entities that never observe each other.
type Sharded struct {
	ctl    *Engine
	shards []*Engine

	barriers uint64
	stall    time.Duration
	busy     []time.Duration
}

// NewSharded builds a sharded kernel with the given number of shard
// engines (at least 1) plus a control engine.
func NewSharded(shards int) *Sharded {
	if shards < 1 {
		panic(fmt.Sprintf("sim: sharded kernel needs at least 1 shard, got %d", shards))
	}
	s := &Sharded{ctl: NewEngine(), shards: make([]*Engine, shards), busy: make([]time.Duration, shards)}
	for i := range s.shards {
		s.shards[i] = NewEngine()
	}
	return s
}

// Control returns the serial control engine. The SpeQuloS service, the
// simulated cloud and every other cross-shard actor must live here: its
// events run only at barriers, with all shards parked on the barrier
// instant.
func (s *Sharded) Control() *Engine { return s.ctl }

// Shards returns the number of shard engines.
func (s *Sharded) Shards() int { return len(s.shards) }

// Shard returns shard engine i.
func (s *Sharded) Shard(i int) *Engine { return s.shards[i] }

// Now returns the current barrier time (the control engine's clock).
func (s *Sharded) Now() Time { return s.ctl.Now() }

// Executed returns the total number of events fired across every engine.
func (s *Sharded) Executed() uint64 {
	n := s.ctl.Executed()
	for _, e := range s.shards {
		n += e.Executed()
	}
	return n
}

// nextTime returns the earliest pending event time across every engine.
func (s *Sharded) nextTime() (Time, bool) {
	best, ok := s.ctl.NextEventTime()
	for _, e := range s.shards {
		if t, has := e.NextEventTime(); has && (!ok || t < best) {
			best, ok = t, true
		}
	}
	return best, ok
}

// Run advances the kernel until stop() reports true or no engine has
// pending events. Each iteration executes one barrier window: the window
// start is the merged next-event time (so idle stretches are skipped in one
// hop), the barrier lands window seconds later, every shard fires its
// events strictly before the barrier in parallel, and the control engine
// then runs serially up to and including the barrier instant. stop is
// evaluated between barriers only — never concurrently with shard
// execution — and may inspect any engine.
//
// The window must be positive. For a simulation whose cross-shard actor is
// a periodic monitor, the monitor period is the natural window; a
// simulation with no control events dispatches in one window per idle gap.
func (s *Sharded) Run(window float64, stop func() bool) {
	if window <= 0 {
		panic(fmt.Sprintf("sim: sharded kernel window must be positive, got %v", window))
	}
	n := len(s.shards)

	// Persistent shard executors: one goroutine per shard, woken per window.
	// With a single shard the loop below runs it inline — that configuration
	// is the serial reference the determinism tests compare against.
	var starts []chan Time
	var dones chan int
	if n > 1 {
		starts = make([]chan Time, n)
		dones = make(chan int, n)
		for i := range s.shards {
			starts[i] = make(chan Time, 1)
			go func(i int) {
				eng := s.shards[i]
				for target := range starts[i] {
					t0 := time.Now()
					eng.RunBefore(target)
					s.busy[i] += time.Since(t0)
					dones <- i
				}
			}(i)
		}
		defer func() {
			for _, c := range starts {
				close(c)
			}
		}()
	}

	for stop == nil || !stop() {
		b, ok := s.nextTime()
		if !ok {
			return
		}
		target := b + window
		if n == 1 {
			s.shards[0].RunBefore(target)
		} else {
			wall := time.Now()
			for _, c := range starts {
				c <- target
			}
			for i := 0; i < n; i++ {
				<-dones
			}
			// Executor idle time at this barrier: the gap between each
			// shard's busy time and the window's wall-clock, summed.
			elapsed := time.Since(wall)
			for range s.shards {
				s.stall += elapsed
			}
			for i := range s.busy {
				s.stall -= s.busy[i]
				s.busy[i] = 0
			}
		}
		// Barrier: the serial control window, with every shard parked
		// exactly on the barrier instant.
		s.ctl.RunUntil(target)
		s.barriers++
	}
}

// ShardedStats is a snapshot of the kernel's execution counters: the
// bench harness records them per run (per-shard event counts and
// barrier-stall time are the two numbers that tell whether the shards are
// balanced and the barriers cheap).
type ShardedStats struct {
	// Barriers is the number of barrier windows executed.
	Barriers uint64
	// ShardEvents is the number of events fired by each shard engine.
	ShardEvents []uint64
	// ControlEvents is the number of events fired by the control engine.
	ControlEvents uint64
	// StallSeconds is wall-clock executor idle time summed across shards:
	// time spent parked at barriers while sibling shards finished their
	// window. Zero when the kernel ran with a single shard.
	StallSeconds float64
}

// Stats returns the kernel's execution counters so far.
func (s *Sharded) Stats() ShardedStats {
	st := ShardedStats{
		Barriers:      s.barriers,
		ControlEvents: s.ctl.Executed(),
		ShardEvents:   make([]uint64, len(s.shards)),
		StallSeconds:  s.stall.Seconds(),
	}
	for i, e := range s.shards {
		st.ShardEvents[i] = e.Executed()
	}
	return st
}
