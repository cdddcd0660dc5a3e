package middleware

import (
	"hash/fnv"
	"testing"

	"spequlos/internal/sim"
	"spequlos/internal/trace"
)

// TestNodePartitionIsFNV32a pins the inline hash to hash/fnv over the ID's
// four little-endian bytes: a node's partition decides which batch it serves
// in every sharded cell, so the value may never move.
func TestNodePartitionIsFNV32a(t *testing.T) {
	ids := []int{0, 1, 2, 77, 255, 256, 2499, 31091, 65535, 65536, 1<<24 - 1, 1 << 24, 1<<31 - 1}
	for id := 0; id < 3000; id += 7 {
		ids = append(ids, id)
	}
	for _, id := range ids {
		h := fnv.New32a()
		h.Write([]byte{byte(id), byte(id >> 8), byte(id >> 16), byte(id >> 24)})
		for _, parts := range []int{1, 2, 3, 32, 2000} {
			if got, want := nodePartition(id, parts), int(h.Sum32()%uint32(parts)); got != want {
				t.Fatalf("nodePartition(%d, %d) = %d, hash/fnv gives %d", id, parts, got, want)
			}
		}
	}
}

// TestBindTracePartitionDrawsOnlyItsNodes binds each partition of an
// on-demand trace: a partition draws its own nodes only, the partitions'
// workers are disjoint and together are Bind's.
func TestBindTracePartitionDrawsOnlyItsNodes(t *testing.T) {
	const parts = 8
	whole := new(Binding)
	whole.Bind(sim.NewEngine(), trace.SETI.Open(5, 86400, 200), &fakeServer{})
	seen := map[int]bool{}
	for part := 0; part < parts; part++ {
		tr := trace.SETI.Open(5, 86400, 200)
		b := BindTracePartition(sim.NewEngine(), tr, &fakeServer{}, part, parts)
		for _, n := range tr.Nodes {
			if member := nodePartition(n.ID, parts) == part; !member && n.Drawn() != 0 {
				t.Fatalf("partition %d drew %d intervals of node %d, which it does not bind", part, n.Drawn(), n.ID)
			}
		}
		for _, w := range b.workers {
			if seen[w.ID] {
				t.Fatalf("node %d bound by two partitions", w.ID)
			}
			seen[w.ID] = true
		}
	}
	if len(seen) != len(whole.workers) || len(seen) == 0 {
		t.Fatalf("partitions bind %d nodes, Bind %d", len(seen), len(whole.workers))
	}
}
