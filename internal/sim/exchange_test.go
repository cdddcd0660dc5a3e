package sim

import (
	"fmt"
	"testing"
)

// exchangePartition is one message-producing entity group: it runs a
// deterministic event chain on its shard engine and posts a message to its
// outbox for every event, so the control-side delivery log captures the
// merged cross-shard ordering.
type exchangePartition struct {
	id    int
	eng   *Engine
	op    Op
	ob    *Outbox
	topic Topic
	state uint64
}

func (p *exchangePartition) next() float64 {
	p.state = p.state*6364136223846793005 + 1442695040888963407
	return 0.25 + float64(p.state%89)/16
}

func (p *exchangePartition) fire(pay Payload) {
	p.ob.Post(Msg{Time: p.eng.Now(), Topic: p.topic, I: int32(p.id), X: float64(pay.I)})
	if pay.I > 0 {
		p.eng.AfterOp(p.next(), p.op, Payload{A: p, I: pay.I - 1})
	}
}

// runExchangeWorkload runs the reference exchange workload on n shards and
// returns the control-side delivery log, which must be byte-identical for
// every n: message merge order is pinned by (time, outbox creation order).
func runExchangeWorkload(n int) (delivered []string, st ShardedStats) {
	const (
		partitions = 6
		horizon    = 120.0
		window     = 10.0
	)
	sh := NewSharded(n)
	topic := sh.RegisterTopic(func(m Msg) {
		delivered = append(delivered, fmt.Sprintf("%.4f p%d i%.0f@%.4f", float64(sh.Control().Now()), m.I, m.X, float64(m.Time)))
	})
	parts := make([]*exchangePartition, partitions)
	// Outboxes are created in partition index order — NOT shard order — so
	// the merge tie-break is invariant under the shard mapping.
	for i := range parts {
		eng := sh.Shard(i % n)
		p := &exchangePartition{id: i, eng: eng, ob: sh.NewOutbox(), topic: topic, state: uint64(3*i + 7)}
		p.op = eng.RegisterOp(func(pay Payload) { pay.A.(*exchangePartition).fire(pay) })
		parts[i] = p
		eng.AtOp(Time(float64(i)/4), p.op, Payload{A: p, I: 25})
	}
	ctl := sh.Control()
	sh.Run(window, func() bool { return ctl.Now() >= horizon })
	return delivered, sh.Stats()
}

// TestExchangeOrderingInvariance pins the tentpole's determinism claim at
// the sim layer: the merged message stream delivered on the control engine
// is byte-identical at 1, 2 and 4 shards, even though the partitions'
// shard mapping and intra-window interleavings differ.
func TestExchangeOrderingInvariance(t *testing.T) {
	refDel, refSt := runExchangeWorkload(1)
	if len(refDel) == 0 {
		t.Fatal("reference run delivered no messages")
	}
	if refSt.Messages != uint64(len(refDel)) {
		t.Fatalf("Messages stat = %d, want %d delivered", refSt.Messages, len(refDel))
	}
	for _, shards := range []int{2, 4} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			del, st := runExchangeWorkload(shards)
			if fmt.Sprint(del) != fmt.Sprint(refDel) {
				t.Fatalf("delivery log diverged from 1-shard reference:\n 1: %v\n%2d: %v", refDel, shards, del)
			}
			if st.Messages != refSt.Messages {
				t.Fatalf("Messages = %d, want %d", st.Messages, refSt.Messages)
			}
		})
	}
}

// TestExchangeEmptyOutboxFastPath pins that a kernel with registered
// outboxes but no posted messages takes the empty-merge fast path: zero
// messages counted, zero control events beyond the kernel's own, and the
// barrier loop still runs.
func TestExchangeEmptyOutboxFastPath(t *testing.T) {
	sh := NewSharded(2)
	sh.RegisterTopic(func(Msg) { t.Fatal("topic handler ran with no posted messages") })
	for i := 0; i < 4; i++ {
		sh.NewOutbox()
	}
	for i := 0; i < 2; i++ {
		eng := sh.Shard(i)
		k := 0
		var chain func()
		chain = func() {
			k++
			if k < 20 {
				eng.At(eng.Now()+1, chain)
			}
		}
		eng.At(eng.Now()+1, chain)
	}
	sh.Run(5, nil)
	st := sh.Stats()
	if st.Messages != 0 {
		t.Fatalf("Messages = %d, want 0", st.Messages)
	}
	if st.ControlEvents != 0 {
		t.Fatalf("control engine fired %d events, want 0 (empty merge must not schedule)", st.ControlEvents)
	}
	if st.Barriers == 0 {
		t.Fatal("no barriers ran")
	}
}

// TestExchangePanics pins the construction-time validation of the exchange
// API: nil handlers and invalid topics must fail loudly.
func TestExchangePanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	sh := NewSharded(1)
	mustPanic("RegisterTopic(nil)", func() { sh.RegisterTopic(nil) })
	mustPanic("Post with zero topic", func() { sh.NewOutbox().Post(Msg{Time: 1}) })
}
