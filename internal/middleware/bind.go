package middleware

import (
	"spequlos/internal/sim"
	"spequlos/internal/trace"
)

// Binding drives worker churn on a server from an availability trace. Each
// trace node becomes one persistent Worker whose join/leave events follow
// the node's availability intervals. Events are scheduled lazily — one
// pending event per node, carried as op-code events with inline payloads,
// so churn allocates nothing beyond the per-node records, which are two
// slabs sized to the bound nodes.
type Binding struct {
	eng     *sim.Engine
	srv     Server
	workers []Worker
	nodes   []boundNode
	stopped bool

	// opJoin/opLeave are the binding's registered churn handlers
	// (Payload.A = *boundNode, I = interval index, X = trace time base).
	opJoin  sim.Op
	opLeave sim.Op
}

// boundNode ties a worker to its trace node for the churn op handlers.
type boundNode struct {
	b    *Binding
	w    *Worker
	node *trace.Node
}

// BindTrace attaches every node of the trace to the server, starting at the
// current virtual time (trace time zero is "now").
func BindTrace(eng *sim.Engine, tr *trace.Trace, srv Server) *Binding {
	return BindTracePartition(eng, tr, srv, 0, 1)
}

// BindTracePartition attaches the part-th of parts stable-hash partitions
// of the trace's nodes to the server. Node→partition assignment is a pure
// function of the node ID (FNV-32a), so the union of all parts is exactly BindTrace's node set and
// a node lands on the same partition at any partition count that divides
// the same way. The sharded campaign kernel uses this to give every QoS
// batch a dedicated, disjoint slice of one common trace.
func BindTracePartition(eng *sim.Engine, tr *trace.Trace, srv Server, part, parts int) *Binding {
	if parts < 1 || part < 0 || part >= parts {
		parts, part = 1, 0
	}
	// The slabs hold the partition's members, counted without drawing
	// anything: sized to the whole trace, the 32 partitions of one sharded
	// cell would each hold room for all of it. Their capacity is never
	// exceeded, so the records never move.
	members := len(tr.Nodes)
	if parts > 1 {
		members = 0
		for _, node := range tr.Nodes {
			if nodePartition(node.ID, parts) == part {
				members++
			}
		}
	}
	b := &Binding{eng: eng, srv: srv, workers: make([]Worker, 0, members), nodes: make([]boundNode, 0, members)}
	b.opJoin = eng.RegisterOp(func(p sim.Payload) { p.A.(*boundNode).join(p.I, p.X) })
	b.opLeave = eng.RegisterOp(func(p sim.Payload) { p.A.(*boundNode).leave(p.I, p.X) })
	base := eng.Now()
	for _, node := range tr.Nodes {
		// Membership first: reading a node of an on-demand trace draws it, and
		// a partition must not draw the nodes of the others.
		if parts > 1 && nodePartition(node.ID, parts) != part {
			continue
		}
		if _, ok := node.At(0); !ok {
			continue
		}
		b.workers = append(b.workers, Worker{ID: node.ID, Power: node.Power})
		b.nodes = append(b.nodes, boundNode{b: b, w: &b.workers[len(b.workers)-1], node: node})
		b.nodes[len(b.nodes)-1].schedule(0, base)
	}
	return b
}

// nodePartition maps a trace-node ID onto one of parts partitions: FNV-32a
// over the ID's four little-endian bytes, inline (hash/fnv's hasher is an
// allocation per node).
func nodePartition(id, parts int) int {
	h := uint32(2166136261)
	for shift := 0; shift < 32; shift += 8 {
		h = (h ^ uint32(byte(id>>shift))) * 16777619
	}
	return int(h % uint32(parts))
}

// schedule arms the node's next join event, if any intervals remain.
func (bn *boundNode) schedule(idx int32, base float64) {
	iv, ok := bn.node.At(int(idx))
	if !ok {
		return
	}
	bn.b.eng.AtOp(sim.Time(base+iv.Start), bn.b.opJoin, sim.Payload{A: bn, I: idx, X: base})
}

func (bn *boundNode) join(idx int32, base float64) {
	b := bn.b
	if b.stopped {
		return
	}
	b.srv.WorkerJoin(bn.w)
	iv, _ := bn.node.At(int(idx)) // scheduled from it, so it exists
	b.eng.AtOp(sim.Time(base+iv.End), b.opLeave, sim.Payload{A: bn, I: idx, X: base})
}

func (bn *boundNode) leave(idx int32, base float64) {
	b := bn.b
	if b.stopped {
		return
	}
	b.srv.WorkerLeave(bn.w)
	bn.schedule(idx+1, base)
}

// Stop detaches the binding: future churn events become no-ops. Workers
// currently attached stay attached. Every node has at most one churn event
// pending, so after Stop each fires once more without effect and schedules
// nothing: the binding's share of the engine's heap drains. It must be
// called on the goroutine that runs the binding's engine; the campaign
// executor calls it from a sharded baseline's completion listener so that a
// finished batch's partition is not replayed to the horizon.
func (b *Binding) Stop() { b.stopped = true }
