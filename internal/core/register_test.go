package core

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// regState is everything a registration may change: the Monitor's records,
// Information's batches, and in Credit every account and every open order (a
// paid-back order stays in the ledger, closed, holding nothing).
type regState struct {
	records  []string // the Monitor's batch IDs, sorted
	live     int      // the Monitor's Order
	tracked  []string // Information's batch IDs, sorted
	accounts map[string]Account
	open     map[string]Order
}

func regStateOf(m *Monitor, p *fakePorts) regState {
	st := regState{records: slices.Sorted(maps.Keys(m.Batches)), live: len(m.Order), tracked: p.info.BatchIDs(),
		accounts: map[string]Account{}, open: map[string]Order{}}
	p.credits.mu.RLock()
	defer p.credits.mu.RUnlock()
	for u, a := range p.credits.accounts {
		st.accounts[u] = *a
	}
	for id, o := range p.credits.orders {
		if !o.Closed {
			st.open[id] = *o
		}
	}
	return st
}

// withOrder is the state after user's order of credits for id was placed.
func (s regState) withOrder(id, user string, credits float64) regState {
	s.accounts, s.open = maps.Clone(s.accounts), maps.Clone(s.open)
	a := s.accounts[user]
	a.Balance -= credits
	s.accounts[user] = a
	s.open[id] = Order{BatchID: id, User: user, Allocated: credits}
	return s
}

// withBatch is the state after id was registered and tracked.
func (s regState) withBatch(id string) regState {
	s.records = slices.Sorted(slices.Values(append(slices.Clone(s.records), id)))
	s.tracked = slices.Sorted(slices.Values(append(slices.Clone(s.tracked), id)))
	s.live++
	return s
}

// TestRegistrationContract states what Monitor.RegisterQoS does at the port
// boundary, for both deployments: a known ID is refused before any port
// call; a failed order or track leaves no record, no open order, the balance
// and Information as they were; a payback that fails too is named in the
// error and its open order is the only difference left; a success orders
// once and tracks once.
func TestRegistrationContract(t *testing.T) {
	for _, tc := range []struct {
		name    string
		fault   string // the port method that fails for the batch
		known   bool   // the Monitor registered the batch already
		behind  bool   // Information tracks the batch behind the Monitor's back
		refusal string // what the error says; "" for a success
		calls   string // the port calls made for the batch, sorted
	}{
		{name: "the ID is known", known: true, refusal: `core: batch "b" already registered`},
		{name: "the order fails", fault: "order", refusal: "injected", calls: "order"},
		{name: "the track fails", fault: "track", refusal: "injected", calls: "order pay track"},
		{name: "Information refuses, the payback fails", fault: "pay", behind: true,
			refusal: "information: batch \"b\" already tracked (order not paid back: injected)", calls: "order pay track"},
		{name: "accepted", calls: "order track"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := &fakePorts{credits: NewCreditSystem(), info: NewInformation(), fault: fault{method: tc.fault, batch: "b"}}
			m := &Monitor{Ports: p}
			if err := p.credits.Deposit("u", 10); err != nil {
				t.Fatal(err)
			}
			if err := m.RegisterQoS(NewBatch("a", "env", TierFree, 0), "u", 10, 3); err != nil {
				t.Fatal(err)
			}
			if tc.behind {
				if _, err := p.info.Track("b", "env", 10, 0); err != nil {
					t.Fatal(err)
				}
			}
			if tc.known {
				if err := m.RegisterQoS(NewBatch("b", "env", TierFree, 0), "u", 10, 0); err != nil {
					t.Fatal(err)
				}
			}
			before := regStateOf(m, p)
			p.calls = map[string]int{}
			b := NewBatch("b", "env", TierFree, 60)
			err := m.RegisterQoS(b, "u", 10, 4)

			var calls []string
			for call, n := range p.calls {
				for range n {
					calls = append(calls, strings.TrimSuffix(call, " b"))
				}
			}
			if slices.Sort(calls); strings.Join(calls, " ") != tc.calls {
				t.Errorf("port calls %q, want %q", calls, tc.calls)
			}
			want := before
			switch {
			case tc.refusal == "":
				if err != nil {
					t.Fatal(err)
				}
				want = before.withOrder("b", "u", 4).withBatch("b")
				if m.Batches["b"] != b || !b.Ordered || b.bi.SubmittedAt != 60 {
					t.Errorf("record %p (want %p), ordered %v, submitted at %v", m.Batches["b"], b, b.Ordered, b.bi.SubmittedAt)
				}
			case tc.fault == "pay" || tc.known:
				if err == nil || err.Error() != tc.refusal {
					t.Fatalf("error %v, want %q", err, tc.refusal)
				}
				if !tc.known {
					want = before.withOrder("b", "u", 4)
				}
			default:
				if !errors.Is(err, errInjected) {
					t.Fatalf("error %v, want the injected failure", err)
				}
			}
			if got := regStateOf(m, p); !reflect.DeepEqual(got, want) {
				t.Errorf("after the registration:\n got  %+v\n want %+v", got, want)
			}
		})
	}
}

// The alphabets FuzzRegistration draws from: IDs and users with the empty
// one among them, and amounts that are refused (negative, NaN, infinite),
// free (0), or more than any balance holds. The finite ones are dyadic, so
// every sum of them is exact.
var (
	fuzzIDs     = []string{"", "a", "b", "c"}
	fuzzUsers   = []string{"", "u", "v"}
	fuzzAmounts = []float64{0, -1, math.NaN(), math.Inf(1), 0.5, 2.5, 10, 1e6}
	fuzzFaults  = []string{"", "order", "track", "pay"}
)

// FuzzRegistration runs a byte-decoded sequence of deposits, tracks behind
// the Monitor's back and registrations, each with an optional fault at
// order, track or pay, through Monitor.RegisterQoS over fakePorts with the
// real CreditSystem and Information. Each step of three bytes (op, x, y):
// op%4 == 0 deposits, 1 tracks, else registers with size op>>2%5 − 1; x
// picks the ID and the user, y the amount and the fault. After each step a
// refused request left the Monitor, Information and the ledger as they were
// (but for the open order a failed payback leaves; a malformed or known one
// made no port call), an accepted one holds a
// record, a tracked batch and an open order of exactly its credits when it
// ordered any, whether it is accepted is what the rule says, and each user's
// deposits equal their balance plus their open orders.
func FuzzRegistration(f *testing.F) {
	const u, v = 1 << 2, 2 << 2 // x's user bits
	f.Add([]byte{
		0, u, 6, // u deposits 10
		6, 1 | u, 5, // a of size 0: refused
		10, 1 | u, 5, // a of size 1 orders 2.5: accepted
		10, 1 | u, 5, // a again: a duplicate
		14, 2 | u, 5 | 1<<4, // b orders 2.5, the order fails
		14, 2 | u, 5 | 2<<4, // b orders 2.5, the track fails: paid back
		1, 3, 0, // c tracked behind the Monitor's back
		14, 3 | u, 4 | 3<<4, // c orders 0.5, Information refuses, the payback fails
		14, 2 | u, 2, // b orders NaN: registered without an order
		0, 0, 6, // the empty user deposits 10: refused
		0, u, 2, // u deposits NaN: refused
		18, 3 | u, 7, // c of size 3 orders more than u holds
	})
	f.Add([]byte{
		10, 1 | v, 4, // a orders 0.5 for v, who has no account
		0, v, 0, // v deposits nothing: an empty account
		10, 1 | v, 4, // a orders 0.5, more than v holds
		10, 1 | u, 3, // a orders +Inf
		10, 1, 4, // the empty user orders 0.5
		10, 1, 1, // ... or −1: registered without an order
	})
	f.Fuzz(runRegistrationScript)
}

// maxRegistrationSteps bounds a script: four IDs reach every state in far
// fewer steps, and a long input would only slow the fuzzer down.
const maxRegistrationSteps = 64

// runRegistrationScript is FuzzRegistration's body.
func runRegistrationScript(t *testing.T, script []byte) {
	script = script[:min(len(script), 3*maxRegistrationSteps)]
	p := &fakePorts{credits: NewCreditSystem(), info: NewInformation(), calls: map[string]int{}}
	m := &Monitor{Ports: p}
	deposited := map[string]float64{}
	for step := 0; len(script) >= 3; step++ {
		op, x, y := script[0], script[1], script[2]
		script = script[3:]
		id, user := fuzzIDs[x%4], fuzzUsers[int(x>>2)%3]
		amount, fail := fuzzAmounts[y%8], fuzzFaults[y>>4%4]
		before := regStateOf(m, p)
		want, what := before, ""
		switch op % 4 {
		case 0:
			what = "deposit"
			err := p.credits.Deposit(user, amount)
			if ok := user != "" && amount >= 0 && !math.IsInf(amount, 1); ok != (err == nil) {
				t.Fatalf("step %d: deposit of %v for %q: %v", step, amount, user, err)
			}
			if err == nil {
				deposited[user] += amount
				want.accounts = maps.Clone(want.accounts)
				a := want.accounts[user]
				a.User, a.Balance = user, a.Balance+amount
				want.accounts[user] = a
			}
		case 1:
			what = "track behind the Monitor's back"
			if _, err := p.info.Track(id, "env", 1, 0); err == nil {
				want.tracked = slices.Sorted(slices.Values(append(slices.Clone(want.tracked), id)))
			}
		default:
			size := int(op>>2)%5 - 1
			what = fmt.Sprintf("registration of size %d, fault %q", size, fail)
			p.fault = fault{method: fail, batch: id}
			clear(p.calls)
			b := NewBatch(id, "env", TierFree, float64(step))
			err := m.RegisterQoS(b, user, size, amount)
			p.fault = fault{}

			ordered := amount > 0
			_, open := before.open[id]
			orderOK := !open && user != "" && !math.IsInf(amount, 1) && before.accounts[user].Balance >= amount
			tracked := slices.Contains(before.tracked, id)
			switch {
			case id == "" || size <= 0:
				if !errors.Is(err, ErrMalformed) || len(p.calls) > 0 {
					t.Fatalf("step %d: %s of %q: %v after port calls %v, want a malformed-request refusal before any", step, what, id, err, p.calls)
				}
			case slices.Contains(before.records, id):
				if err == nil || len(p.calls) > 0 {
					t.Fatalf("step %d: duplicate %q: %v after port calls %v, want a refusal before any", step, id, err, p.calls)
				}
			case ordered && (fail == "order" || !orderOK):
				if err == nil {
					t.Fatalf("step %d: %s: order of %v by %q accepted", step, what, amount, user)
				}
			case fail == "track" || tracked:
				if err == nil {
					t.Fatalf("step %d: %s: track of %q accepted", step, what, id)
				}
				if ordered && fail == "pay" {
					if !strings.Contains(err.Error(), "order not paid back") {
						t.Fatalf("step %d: %s: %v does not name the unpaid order", step, what, err)
					}
					want = want.withOrder(id, user, amount)
				}
			default:
				if err != nil {
					t.Fatalf("step %d: %s of %q by %q for %v: %v", step, what, id, user, amount, err)
				}
				if ordered {
					want = want.withOrder(id, user, amount)
				}
				want = want.withBatch(id)
				if m.Batches[id] != b || b.Ordered != ordered || b.bi == nil {
					t.Fatalf("step %d: record %p (want %p), ordered %v, tracked %v", step, m.Batches[id], b, b.Ordered, b.bi != nil)
				}
			}
		}
		got := regStateOf(m, p)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: %s of %q by %q for %v:\n got  %+v\n want %+v", step, what, id, user, amount, got, want)
		}
		for u, dep := range deposited {
			held := got.accounts[u].Balance
			for _, o := range got.open {
				if o.User == u {
					held += o.Allocated - o.Billed
				}
			}
			if held != dep {
				t.Fatalf("step %d: %q deposited %v and holds %v", step, u, dep, held)
			}
		}
	}
}
