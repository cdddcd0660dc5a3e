package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestCreditLifecycle(t *testing.T) {
	cs := NewCreditSystem()
	if err := cs.Deposit("alice", 100); err != nil {
		t.Fatal(err)
	}
	if err := cs.OrderQoS("alice", "b1", 60); err != nil {
		t.Fatal(err)
	}
	if got := cs.AccountOf("alice").Balance; got != 40 {
		t.Fatalf("balance after order = %v, want 40", got)
	}
	if o, found, has := cs.Lookup("b1"); !found || !has || o.Allocated != 60 {
		t.Fatalf("fresh order: %+v found %v has credits %v", o, found, has)
	}
	billed, exhausted, err := cs.Bill("b1", 25)
	if err != nil || billed != 25 || exhausted {
		t.Fatalf("bill: %v %v %v", billed, exhausted, err)
	}
	refund, err := cs.Pay("b1")
	if err != nil || refund != 35 {
		t.Fatalf("pay refund = %v, want 35", refund)
	}
	a := cs.AccountOf("alice")
	if a.Balance != 75 || a.Spent != 25 {
		t.Fatalf("final account = %+v", a)
	}
	if o, found, has := cs.Lookup("b1"); !found || has || !o.Closed {
		t.Fatalf("closed order: %+v found %v has credits %v", o, found, has)
	}
	// Idempotent pay.
	if refund, _ := cs.Pay("b1"); refund != 0 {
		t.Fatal("double pay refunded again")
	}
}

func TestOrderValidation(t *testing.T) {
	cs := NewCreditSystem()
	cs.Deposit("bob", 10)
	if err := cs.OrderQoS("bob", "b", 20); err == nil {
		t.Fatal("overdraft order accepted")
	}
	if err := cs.OrderQoS("bob", "b", -5); err == nil {
		t.Fatal("negative order accepted")
	}
	if err := cs.OrderQoS("bob", "b", 10); err != nil {
		t.Fatal(err)
	}
	if err := cs.OrderQoS("bob", "b", 1); err == nil {
		t.Fatal("duplicate open order accepted")
	}
	if err := cs.Deposit("bob", -1); err == nil {
		t.Fatal("negative deposit accepted")
	}
}

// TestMalformedCreditWritesChangeNothing: a deposit or order for an empty
// user or batch, or of a negative or non-finite amount, is refused as
// malformed and leaves the ledger as it was; a NaN once turned the balance
// into NaN.
func TestMalformedCreditWritesChangeNothing(t *testing.T) {
	cs := NewCreditSystem()
	if err := cs.Deposit("u", 10); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		do   func() error
	}{
		{"deposit for no user", func() error { return cs.Deposit("", 5) }},
		{"deposit of NaN", func() error { return cs.Deposit("u", math.NaN()) }},
		{"deposit of +Inf", func() error { return cs.Deposit("u", math.Inf(1)) }},
		{"deposit of -Inf", func() error { return cs.Deposit("u", math.Inf(-1)) }},
		{"order by no user", func() error { return cs.OrderQoS("", "b", 5) }},
		{"order for no batch", func() error { return cs.OrderQoS("u", "", 5) }},
		{"order of NaN", func() error { return cs.OrderQoS("u", "b", math.NaN()) }},
		{"order of +Inf", func() error { return cs.OrderQoS("u", "b", math.Inf(1)) }},
		{"order of nothing", func() error { return cs.OrderQoS("u", "b", 0) }},
	} {
		if err := tc.do(); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: %v, want a malformed-request refusal", tc.name, err)
		}
		if a := cs.AccountOf("u"); a.Balance != 10 || a.Spent != 0 {
			t.Fatalf("%s: account %+v, want balance 10", tc.name, a)
		}
		if a := cs.AccountOf(""); a.Balance != 0 {
			t.Fatalf("%s: the empty user holds %v credits", tc.name, a.Balance)
		}
		for _, id := range []string{"", "b"} {
			if o, ok := cs.OrderOf(id); ok {
				t.Fatalf("%s: order %+v placed", tc.name, o)
			}
		}
	}
}

func TestBillCapsAtRemaining(t *testing.T) {
	cs := NewCreditSystem()
	cs.Deposit("u", 30)
	cs.OrderQoS("u", "b", 30)
	billed, exhausted, err := cs.Bill("b", 50)
	if err != nil || billed != 30 || !exhausted {
		t.Fatalf("bill over remaining: %v %v %v", billed, exhausted, err)
	}
	if _, _, err := cs.Bill("b", -1); err == nil {
		t.Fatal("negative bill accepted")
	}
	if _, _, err := cs.Bill("zz", 1); err == nil {
		t.Fatal("billing unknown order accepted")
	}
}

func TestExchangeRate(t *testing.T) {
	cs := NewCreditSystem()
	if got := cs.CPUHoursFor(CreditsPerCPUHour); got != 1 {
		t.Fatalf("%v credits = %v cpu·h, want 1", CreditsPerCPUHour, got)
	}
	if got := cs.CPUHoursFor(30); got != 2 {
		t.Fatalf("30 credits = %v cpu·h", got)
	}
}

// Property: credits are conserved: balance + order remaining + spent ==
// total deposits, under any sequence of operations.
func TestCreditConservationProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		cs := NewCreditSystem()
		deposited := 0.0
		orderOpen := false
		for i, op := range ops {
			switch op % 4 {
			case 0:
				amt := float64(op%50) + 1
				cs.Deposit("u", amt)
				deposited += amt
			case 1:
				if !orderOpen {
					amt := float64(op%20) + 1
					if cs.AccountOf("u").Balance >= amt {
						if err := cs.OrderQoS("u", "b", amt); err == nil {
							orderOpen = true
						}
					}
				}
			case 2:
				if orderOpen {
					cs.Bill("b", float64(op%10))
				}
			case 3:
				if orderOpen && i%2 == 0 {
					cs.Pay("b")
					orderOpen = false
					// A paid order can be reopened later under the same
					// batch id in this model? No — keep single order.
				}
			}
			if orderOpen {
				continue
			}
		}
		a := cs.AccountOf("u")
		total := a.Balance + a.Spent
		if o, ok := cs.OrderOf("b"); ok && !o.Closed {
			total += o.Remaining()
		}
		return math.Abs(total-deposited) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentCreditOps(t *testing.T) {
	cs := NewCreditSystem()
	cs.Deposit("u", 1e6)
	cs.OrderQoS("u", "b", 1e5)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				cs.Bill("b", 1)
				cs.Lookup("b")
				cs.AccountOf("u")
			}
		}()
	}
	wg.Wait()
	o, _ := cs.OrderOf("b")
	if o.Billed != 800 {
		t.Fatalf("billed = %v, want 800", o.Billed)
	}
}

// TestUsersSorted pins the image's account order: by user, whatever the
// order of first deposit, so two images of one state are byte-identical.
func TestUsersSorted(t *testing.T) {
	s := NewState()
	s.Credits.Deposit("zoe", 1)
	s.Credits.Deposit("amy", 1)
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var img stateImage
	if err := json.Unmarshal(buf.Bytes(), &img); err != nil {
		t.Fatal(err)
	}
	if a := img.Credits.Accounts; len(a) != 2 || a[0].User != "amy" || a[1].User != "zoe" {
		t.Fatalf("accounts = %+v", a)
	}
}
