package middleware

import (
	"slices"

	"spequlos/internal/sim"
	"spequlos/internal/trace"
)

// Binding drives worker churn on a server from an availability trace. Each
// trace node becomes one persistent Worker whose join/leave events follow
// the node's availability intervals. Events are scheduled lazily — one
// pending event per node, carried as op-code events with inline payloads,
// so churn allocates nothing beyond the per-node records, which are two
// slabs sized to the bound nodes. The nodes up at the bind time share one
// start event, which joins them in node order. A Binding reused through
// Reset and Bind keeps its slabs.
type Binding struct {
	eng     *sim.Engine
	srv     Server
	workers []Worker
	nodes   []boundNode
	stopped bool
	// base is the virtual time of the bind: trace time zero.
	base float64

	// opStart/opJoin/opLeave are the binding's registered churn handlers
	// (start: Payload.A = *Binding; join, leave: A = *boundNode, I =
	// interval index).
	opStart sim.Op
	opJoin  sim.Op
	opLeave sim.Op
}

// boundNode ties a worker to its trace node for the churn op handlers. end
// is the trace time at which the period whose join is pending or done ends,
// read with its start, so that a period costs one trace read.
type boundNode struct {
	b      *Binding
	w      *Worker
	node   *trace.Node
	end    float64
	atBind bool // the first period starts at the bind time: the start event joins it
}

// Bind attaches every node of the trace to the server, starting at the
// current virtual time (trace time zero is "now"), reusing the binding's
// slabs. The binding must be new or Reset.
func (b *Binding) Bind(eng *sim.Engine, tr *trace.Trace, srv Server) { b.bind(eng, tr, srv, 0, 1) }

// Reset empties the binding for a later Bind: it keeps its slabs (recycle)
// and holds nothing of the engine, trace and server it was bound to.
// The workers it built are zeroed, so each is a new worker to the server it
// joins next.
func (b *Binding) Reset() {
	*b = Binding{workers: recycle(b.workers), nodes: recycle(b.nodes)}
}

// BindTracePartition attaches the part-th of parts stable-hash partitions
// of the trace's nodes to the server. Node→partition assignment is a pure
// function of the node ID (FNV-32a), so the union of all parts is exactly Bind's node set and
// a node lands on the same partition at any partition count that divides
// the same way. The sharded campaign kernel uses this to give every QoS
// batch a dedicated, disjoint slice of one common trace.
func BindTracePartition(eng *sim.Engine, tr *trace.Trace, srv Server, part, parts int) *Binding {
	b := new(Binding)
	b.bind(eng, tr, srv, part, parts)
	return b
}

// bind attaches the part-th of parts partitions to the server: the work of
// BindTracePartition, on an empty binding.
func (b *Binding) bind(eng *sim.Engine, tr *trace.Trace, srv Server, part, parts int) {
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
	b.eng, b.srv, b.base = eng, srv, eng.Now()
	b.workers, b.nodes = slices.Grow(b.workers, members), slices.Grow(b.nodes, members)
	b.opStart = eng.RegisterOp(func(p sim.Payload) { p.A.(*Binding).start() })
	b.opJoin = eng.RegisterOp(func(p sim.Payload) { p.A.(*boundNode).join(p.I) })
	b.opLeave = eng.RegisterOp(func(p sim.Payload) { p.A.(*boundNode).leave(p.I) })
	atBind := false
	for _, node := range tr.Nodes {
		// Membership first: reading a node of an on-demand trace draws it, and
		// a partition must not draw the nodes of the others.
		if parts > 1 && nodePartition(node.ID, parts) != part {
			continue
		}
		iv, ok := node.At(0)
		if !ok {
			continue
		}
		b.workers = append(b.workers, Worker{ID: node.ID, Power: node.Power})
		b.nodes = append(b.nodes, boundNode{b: b, w: &b.workers[len(b.workers)-1], node: node})
		bn := &b.nodes[len(b.nodes)-1]
		// The event time, not the trace's start: a start too small to move
		// the bind time joins at it, and AtOp would clamp an earlier one to it.
		if b.base+iv.Start <= b.base {
			bn.end, bn.atBind, atBind = iv.End, true, true
			continue
		}
		bn.schedule(0, iv)
	}
	// Every other first join is later than the bind time, and nothing else
	// is pushed during the loop, so the nodes up at the bind time join in
	// the order their own events would have fired in.
	if atBind {
		eng.AtOp(sim.Time(b.base), b.opStart, sim.Payload{A: b})
	}
}

// start joins the nodes whose first period starts at the bind time, in node
// order.
func (b *Binding) start() {
	for i := range b.nodes {
		if b.nodes[i].atBind {
			b.nodes[i].join(0)
		}
	}
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

// schedule arms the node's join event for its period idx, iv, and keeps the
// period's end for the join.
func (bn *boundNode) schedule(idx int32, iv trace.Interval) {
	bn.end = iv.End
	bn.b.eng.AtOp(sim.Time(bn.b.base+iv.Start), bn.b.opJoin, sim.Payload{A: bn, I: idx})
}

func (bn *boundNode) join(idx int32) {
	b := bn.b
	if b.stopped {
		return
	}
	b.srv.WorkerJoin(bn.w)
	b.eng.AtOp(sim.Time(b.base+bn.end), b.opLeave, sim.Payload{A: bn, I: idx})
}

func (bn *boundNode) leave(idx int32) {
	b := bn.b
	if b.stopped {
		return
	}
	b.srv.WorkerLeave(bn.w)
	if iv, ok := bn.node.At(int(idx + 1)); ok {
		bn.schedule(idx+1, iv)
	}
}

// Stop detaches the binding: future churn events become no-ops. Workers
// currently attached stay attached. Every node has at most one churn event
// pending (the start event stands for those up at the bind time), so after
// Stop each fires once more without effect and schedules nothing: the
// binding's share of the engine's heap drains. It must be
// called on the goroutine that runs the binding's engine; the campaign
// executor calls it from a sharded baseline's completion listener so that a
// finished batch's partition is not replayed to the horizon.
func (b *Binding) Stop() { b.stopped = true }
