package core

import (
	"bytes"
	"encoding/json"
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
	if !cs.HasCredits("b1") {
		t.Fatal("fresh order should have credits")
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
	if cs.HasCredits("b1") {
		t.Fatal("closed order still has credits")
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
				cs.HasCredits("b")
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
