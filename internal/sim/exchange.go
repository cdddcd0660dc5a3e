package sim

import (
	"fmt"
	"sort"
)

// Topic identifies a registered barrier-exchange handler on a Sharded
// kernel. Topics are registered once at construction time with
// RegisterTopic; the zero value is invalid, mirroring Op.
type Topic int32

// Msg is one barrier-exchange message: a cross-shard effect recorded by a
// shard during its window and replayed on the control engine at the next
// barrier. Time is the virtual instant the effect happened on the shard;
// the control engine re-executes the message at exactly that time (clamped
// to the barrier if the message was posted from the control side itself),
// so cross-shard couplings keep their exact event times. I, X and S carry
// the topic-specific arguments.
type Msg struct {
	// Time is the virtual time the message was posted.
	Time Time
	// Topic selects the handler registered with RegisterTopic.
	Topic Topic
	// I is an inline integer argument (e.g. a task ID).
	I int32
	// X is an inline float argument.
	X float64
	// S is an inline string argument (e.g. a batch ID).
	S string
}

// Outbox is a single-writer barrier-exchange buffer. Each partition of the
// simulation (a batch) owns exactly one outbox and is the only writer
// during its shard window; the kernel drains every outbox at the barrier,
// between the shard windows and the control engine's serial run.
//
// Determinism contract: the barrier merge is a stable sort by Msg.Time
// with outbox creation order breaking ties, so callers must create
// outboxes in an order that does not depend on the shard count (e.g. batch
// index order) and must post monotonically within a window (event handlers
// do this naturally — they post at the engine's current time).
type Outbox struct {
	msgs []Msg
}

// Post appends a message to the outbox. It must only be called by the
// outbox's owning partition: from its shard goroutine during a window, or
// from the control goroutine at a barrier (such messages deliver at the
// next barrier, clamped to its instant).
func (ob *Outbox) Post(m Msg) {
	if m.Topic <= 0 {
		panic(fmt.Sprintf("sim: posting exchange message with invalid topic %d", m.Topic))
	}
	ob.msgs = append(ob.msgs, m)
}

// RegisterTopic registers a barrier-exchange handler and returns its topic
// code. Handlers run on the control goroutine during the barrier's serial
// phase, with every shard clock parked on the barrier instant, so they may
// freely touch control-engine state and any shard-hosted server.
// Registration is construction-time only, like Engine.RegisterOp.
func (s *Sharded) RegisterTopic(fn func(Msg)) Topic {
	if fn == nil {
		panic("sim: RegisterTopic with nil handler")
	}
	s.topics = append(s.topics, fn)
	return Topic(len(s.topics))
}

// NewOutbox creates a barrier-exchange outbox owned by one partition.
// Creation order is the deterministic tie-break of the barrier merge, so
// call it in partition index order, independent of the shard count.
func (s *Sharded) NewOutbox() *Outbox {
	ob := &Outbox{}
	s.outboxes = append(s.outboxes, ob)
	return ob
}

// exchange drains every outbox and replays the merged messages on the
// control engine: stable-sorted by time (creation order of the outboxes
// breaks ties), each message becomes a control event at its exact post
// time, scheduled before the control window runs so it interleaves
// deterministically with the monitor tick. Messages posted from the
// control side after its window land here next barrier and clamp to that
// barrier's instant.
func (s *Sharded) exchange() {
	s.scratch = s.scratch[:0]
	for _, ob := range s.outboxes {
		s.scratch = append(s.scratch, ob.msgs...)
		ob.msgs = ob.msgs[:0]
	}
	if len(s.scratch) == 0 {
		return
	}
	sort.SliceStable(s.scratch, func(i, j int) bool { return s.scratch[i].Time < s.scratch[j].Time })
	for i := range s.scratch {
		m := new(Msg)
		*m = s.scratch[i]
		s.ctl.AtOp(m.Time, s.opMsg, Payload{A: m})
	}
	s.messages += uint64(len(s.scratch))
}

// dispatchMsg is the control-engine op that replays one exchanged message.
func (s *Sharded) dispatchMsg(p Payload) {
	m := p.A.(*Msg)
	if m.Topic <= 0 || int(m.Topic) > len(s.topics) {
		panic(fmt.Sprintf("sim: exchange message with unregistered topic %d", m.Topic))
	}
	s.topics[m.Topic-1](*m)
}
