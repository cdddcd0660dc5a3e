package core

import (
	"fmt"
	"sync"
	"testing"
)

// TestCreditConservationUnderConcurrency is the ledger's property test:
// deposits, orders, concurrent billing from many goroutines (the scheduler
// shards), payments and fresh orders in flight together must conserve
// credits EXACTLY — for every user,
//
//	deposited = balance + spent + Σ remaining over open orders
//
// All amounts are multiples of 0.25, so every sum is exact in float64 and
// the comparison needs no tolerance: any lost or double-counted quarter
// credit fails the test. Run with -race to also prove memory safety of the
// ledger.
func TestCreditConservationUnderConcurrency(t *testing.T) {
	cs := NewCreditSystem()
	const (
		users         = 4
		ordersPerUser = 8
		workers       = 8
		opsPerWorker  = 400
		seedDeposit   = 1000.0
		orderSize     = 20.0
	)

	deposited := map[string]float64{}
	var batchIDs []string
	for u := 0; u < users; u++ {
		user := fmt.Sprintf("u%d", u)
		if err := cs.Deposit(user, seedDeposit); err != nil {
			t.Fatal(err)
		}
		deposited[user] += seedDeposit
		for i := 0; i < ordersPerUser; i++ {
			id := fmt.Sprintf("b%d-%d", u, i)
			if err := cs.OrderQoS(user, id, orderSize); err != nil {
				t.Fatal(err)
			}
			batchIDs = append(batchIDs, id)
		}
	}

	// Each worker interleaves bills against shared orders with payments and
	// fresh deposit+order churn; per-worker side effects are recorded
	// locally and merged after the join so the invariant check knows the
	// exact totals.
	type delta struct {
		deposits map[string]float64
		orders   []string
	}
	deltas := make([]delta, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		deltas[w] = delta{deposits: map[string]float64{}}
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := &deltas[w]
			for i := 0; i < opsPerWorker; i++ {
				id := batchIDs[(w*7+i*13)%len(batchIDs)]
				switch {
				case i%37 == 36:
					if _, err := cs.Pay(id); err != nil {
						t.Errorf("pay %s: %v", id, err)
					}
				case i%11 == 10:
					user := fmt.Sprintf("u%d", (w+i)%users)
					fresh := fmt.Sprintf("w%d-%d", w, i)
					if err := cs.Deposit(user, 1.25); err != nil {
						t.Errorf("deposit %s: %v", user, err)
						continue
					}
					d.deposits[user] += 1.25
					if err := cs.OrderQoS(user, fresh, 1.25); err != nil {
						t.Errorf("order %s: %v", fresh, err)
						continue
					}
					d.orders = append(d.orders, fresh)
				default:
					// Billing a paid order errors by design; the credits
					// must still conserve.
					cs.Bill(id, 0.25) //nolint:errcheck
				}
			}
		}()
	}
	wg.Wait()

	allOrders := append([]string{}, batchIDs...)
	for _, d := range deltas {
		for user, amt := range d.deposits {
			deposited[user] += amt
		}
		allOrders = append(allOrders, d.orders...)
	}

	held := map[string]float64{} // user → Σ remaining over open orders
	for _, id := range allOrders {
		o, ok := cs.OrderOf(id)
		if !ok {
			t.Fatalf("order %s vanished", id)
		}
		if o.Billed < 0 || o.Billed > o.Allocated {
			t.Fatalf("order %s over-billed: %+v", id, o)
		}
		if !o.Closed {
			held[o.User] += o.Remaining()
		}
	}
	for user, dep := range deposited {
		a := cs.AccountOf(user)
		if got := a.Balance + a.Spent + held[user]; got != dep {
			t.Errorf("%s: balance %v + spent %v + held %v = %v, deposited %v (leak %v)",
				user, a.Balance, a.Spent, held[user], got, dep, dep-got)
		}
		if a.Balance < 0 {
			t.Errorf("%s: negative balance %v", user, a.Balance)
		}
	}
}
