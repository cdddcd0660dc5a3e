package sim

import (
	"fmt"
	"testing"
)

func TestRunBeforeExcludesBarrierInstant(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.At(5, func() { fired = append(fired, 5) })
	e.At(10, func() { fired = append(fired, 10) })
	e.RunBefore(10)
	if len(fired) != 1 || fired[0] != 5 {
		t.Fatalf("RunBefore(10) fired %v, want only the event at 5", fired)
	}
	if e.Now() != 10 {
		t.Fatalf("clock after RunBefore(10) = %v, want 10", e.Now())
	}
	if nt, ok := e.NextEventTime(); !ok || nt != 10 {
		t.Fatalf("NextEventTime = %v,%v, want 10,true", nt, ok)
	}
	e.RunBefore(11)
	if len(fired) != 2 {
		t.Fatalf("event at the previous barrier did not fire in the next window: %v", fired)
	}
	if _, ok := e.NextEventTime(); ok {
		t.Fatal("NextEventTime reports pending events on a drained engine")
	}
}

func TestShardedPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("NewSharded(0)", func() { NewSharded(0) })
	mustPanic("Run with zero window", func() { NewSharded(1).Run(0, nil) })
}

// shardedPartition is one isolated entity group in the determinism
// workload: it schedules a deterministic chain of events on whatever shard
// engine it is mapped to, and counts work the control monitor aggregates.
type shardedPartition struct {
	id    int
	eng   *Engine
	op    Op
	state uint64
	count int
	log   []string
}

func (p *shardedPartition) next() float64 {
	// Deterministic per-partition LCG: step durations differ across
	// partitions so shard workloads are intentionally unbalanced.
	p.state = p.state*6364136223846793005 + 1442695040888963407
	return 0.25 + float64(p.state%97)/16
}

func (p *shardedPartition) fire(pay Payload) {
	p.count++
	p.log = append(p.log, fmt.Sprintf("%.4f#%d", float64(p.eng.Now()), pay.I))
	if pay.I > 0 {
		p.eng.AfterOp(p.next(), p.op, Payload{A: p, I: pay.I - 1})
	}
}

// runShardedWorkload runs the reference workload on n shards and returns
// the control monitor's observation log plus each partition's event log.
// Everything returned must be byte-identical for every n.
func runShardedWorkload(n int) (monitor []string, parts []*shardedPartition) {
	const (
		partitions = 8
		horizon    = 200.0
		window     = 10.0
	)
	sh := NewSharded(n)
	parts = make([]*shardedPartition, partitions)
	for i := range parts {
		eng := sh.Shard(i % n)
		p := &shardedPartition{id: i, eng: eng, state: uint64(i + 1)}
		p.op = eng.RegisterOp(func(pay Payload) { pay.A.(*shardedPartition).fire(pay) })
		parts[i] = p
		eng.AtOp(Time(float64(i)/3), p.op, Payload{A: p, I: 40})
	}
	ctl := sh.Control()
	tick := 0
	ctl.NewTicker(window, func(now Time) {
		sum := 0
		for _, p := range parts {
			sum += p.count
		}
		monitor = append(monitor, fmt.Sprintf("%.1f=%d", float64(now), sum))
		// Cross-shard injection: the monitor grants one partition extra
		// work, exercising control→shard scheduling at a barrier.
		p := parts[tick%partitions]
		p.eng.AtOp(now+3, p.op, Payload{A: p, I: 2})
		tick++
	})
	sh.Run(window, func() bool { return ctl.Now() >= horizon })
	return monitor, parts
}

// TestShardedDeterminism is the determinism guard: the same partitioned
// workload must produce identical control-plane observations and identical
// per-partition event sequences at every shard count. Runs race-enabled in
// CI, so it also proves the barrier protocol's happens-before edges.
func TestShardedDeterminism(t *testing.T) {
	refMon, refParts := runShardedWorkload(1)
	if len(refMon) == 0 {
		t.Fatal("reference run produced no monitor observations")
	}
	total := 0
	for _, p := range refParts {
		total += p.count
		if p.count == 0 {
			t.Fatalf("partition %d executed no events in reference run", p.id)
		}
	}
	for _, shards := range []int{2, 4, 8} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			mon, parts := runShardedWorkload(shards)
			if fmt.Sprint(mon) != fmt.Sprint(refMon) {
				t.Fatalf("monitor log diverged from 1-shard reference:\n 1: %v\n%2d: %v", refMon, shards, mon)
			}
			for i, p := range parts {
				if fmt.Sprint(p.log) != fmt.Sprint(refParts[i].log) {
					t.Fatalf("partition %d event sequence diverged from 1-shard reference:\n 1: %v\n%2d: %v",
						i, refParts[i].log, shards, p.log)
				}
			}
		})
	}
}

func TestShardedStats(t *testing.T) {
	const n = 4
	sh := NewSharded(n)
	// Shard-local completion flags: shard callbacks must never write shared
	// state, that is the kernel's isolation contract.
	done := make([]bool, n)
	for i := 0; i < n; i++ {
		i := i
		eng := sh.Shard(i)
		var chain func()
		k := 0
		chain = func() {
			k++
			if k < 50 {
				eng.At(eng.Now()+1, chain)
			} else {
				done[i] = true
			}
		}
		eng.At(eng.Now()+1, chain)
	}
	sh.Run(5, nil)
	st := sh.Stats()
	if st.Barriers == 0 {
		t.Fatal("no barriers executed")
	}
	var sum uint64
	for _, c := range st.ShardEvents {
		sum += c
	}
	if sum+st.ControlEvents != sh.Executed() {
		t.Fatalf("stats events %d+%d != total executed %d", sum, st.ControlEvents, sh.Executed())
	}
	if sum != uint64(50*n) {
		t.Fatalf("shard events = %d, want %d", sum, 50*n)
	}
	for i, d := range done {
		if !d {
			t.Fatalf("shard %d chain did not complete", i)
		}
	}
	if st.StallSeconds < 0 {
		t.Fatalf("negative stall time %v", st.StallSeconds)
	}
}
