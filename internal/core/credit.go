package core

import (
	"fmt"
	"sync"
)

// CreditsPerCPUHour is the fixed exchange rate of the Credit System (§3.3:
// "1 CPU.hour of Cloud worker usage costs 15 credits").
const CreditsPerCPUHour = 15.0

// CreditSystem is the SpeQuloS billing and accounting module: it manages
// user accounts, QoS orders attached to BoTs, per-period billing of cloud
// usage, and the final payment that refunds unspent credits (§3.3). It is
// safe for concurrent use under one lock: reads share it, and every write —
// Bill and Pay included — updates the order and its account in one critical
// section, so no reader ever sees credits billed but not yet spent, or paid
// back but not yet refunded.
type CreditSystem struct {
	mu       sync.RWMutex
	accounts map[string]*Account
	orders   map[string]*Order
}

// Account is a user's credit account.
type Account struct {
	User    string  `json:"user"`
	Balance float64 `json:"balance"`
	Spent   float64 `json:"spent"` // lifetime credits consumed
}

// Order is a QoS support order: credits provisioned for one BoT.
type Order struct {
	BatchID   string  `json:"batch_id"`
	User      string  `json:"user"`
	Allocated float64 `json:"allocated"`
	Billed    float64 `json:"billed"`
	Closed    bool    `json:"closed"`
}

// Remaining returns the unconsumed credits of the order.
func (o *Order) Remaining() float64 { return o.Allocated - o.Billed }

// NewCreditSystem returns a credit system with the paper's exchange rate.
func NewCreditSystem() *CreditSystem {
	return &CreditSystem{
		accounts: map[string]*Account{},
		orders:   map[string]*Order{},
	}
}

// CPUHoursFor converts credits to CPU·hours of cloud usage.
func (cs *CreditSystem) CPUHoursFor(credits float64) float64 { return credits / CreditsPerCPUHour }

// Deposit adds credits to a user account, creating it on first use.
func (cs *CreditSystem) Deposit(user string, credits float64) error {
	if credits < 0 {
		return fmt.Errorf("credit: negative deposit %g", credits)
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.account(user).Balance += credits
	return nil
}

// account returns the user's account, creating it on first use. The caller
// holds the write lock.
func (cs *CreditSystem) account(user string) *Account {
	a, ok := cs.accounts[user]
	if !ok {
		a = &Account{User: user}
		cs.accounts[user] = a
	}
	return a
}

// AccountOf returns a copy of the user's account state: an empty account
// for a user never funded, which a read does not create.
func (cs *CreditSystem) AccountOf(user string) Account {
	cs.mu.RLock()
	defer cs.mu.RUnlock()
	if a, ok := cs.accounts[user]; ok {
		return *a
	}
	return Account{User: user}
}

// OrderQoS provisions credits from the user's account for a BoT (§3.3:
// "The Credit System verifies that there are enough credits on the user's
// account to allow the order, and then it provisions credits to the BoT").
func (cs *CreditSystem) OrderQoS(user, batchID string, credits float64) error {
	if credits <= 0 {
		return fmt.Errorf("credit: order must be positive, got %g", credits)
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if o, ok := cs.orders[batchID]; ok && !o.Closed {
		return fmt.Errorf("credit: batch %q already has an open order", batchID)
	}
	a := cs.account(user)
	if a.Balance < credits {
		return fmt.Errorf("credit: %s has %.1f credits, needs %.1f", user, a.Balance, credits)
	}
	a.Balance -= credits
	cs.orders[batchID] = &Order{BatchID: batchID, User: user, Allocated: credits}
	return nil
}

// Lookup returns the batch's order, whether there is one, and whether it is
// open with credits left (Algorithm 1's CreditSystem.hasCredits), all as of
// one instant.
func (cs *CreditSystem) Lookup(batchID string) (o Order, found, hasCredits bool) {
	cs.mu.RLock()
	defer cs.mu.RUnlock()
	e, ok := cs.orders[batchID]
	if !ok {
		return Order{}, false, false
	}
	return *e, true, !e.Closed && e.Remaining() > 1e-9
}

// HasCredits reports whether the batch has an open order with credits left.
func (cs *CreditSystem) HasCredits(batchID string) bool {
	_, _, has := cs.Lookup(batchID)
	return has
}

// Bill charges cloud usage against the batch's order (Algorithm 2's
// CreditSystem.bill). It bills at most the remaining credits and returns
// the amount actually billed; exhausted reports whether the order ran dry.
func (cs *CreditSystem) Bill(batchID string, credits float64) (billed float64, exhausted bool, err error) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.bill(batchID, credits)
}

// bill is Bill under the caller's write lock.
func (cs *CreditSystem) bill(batchID string, credits float64) (billed float64, exhausted bool, err error) {
	if credits < 0 {
		return 0, false, fmt.Errorf("credit: negative bill %g", credits)
	}
	o, ok := cs.orders[batchID]
	if !ok || o.Closed {
		return 0, true, fmt.Errorf("credit: no open order for batch %q", batchID)
	}
	billed = credits
	if rem := o.Remaining(); billed >= rem {
		billed = rem
		exhausted = true
	}
	// Billed+rem can round one ulp past Allocated: capped, an order is never
	// billed past its allocation, nor refunds a negative amount at Pay.
	o.Billed = min(o.Billed+billed, o.Allocated)
	cs.account(o.User).Spent += billed
	return billed, exhausted, nil
}

// BillAll applies one batch's charges in order and stops at the first that
// fails or runs the order dry: applied counts them from the first, including
// the one that ran dry. The amounts are applied one by one, never summed, in
// one critical section.
func (cs *CreditSystem) BillAll(batchID string, charges []float64) (applied int, exhausted bool, err error) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	for _, c := range charges {
		if _, exhausted, err = cs.bill(batchID, c); err != nil {
			return applied, false, err
		}
		applied++
		if exhausted {
			break
		}
	}
	return applied, exhausted, nil
}

// Pay closes the order and refunds unspent credits to the user (§3.3: "If
// the BoT execution was completed before all the credits have been spent,
// the Credit System transfers back the remaining credits").
func (cs *CreditSystem) Pay(batchID string) (refund float64, err error) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	o, ok := cs.orders[batchID]
	if !ok {
		return 0, fmt.Errorf("credit: no order for batch %q", batchID)
	}
	if o.Closed {
		return 0, nil
	}
	o.Closed = true
	refund = o.Remaining()
	cs.account(o.User).Balance += refund
	return refund, nil
}

// OrderOf returns a copy of the batch's order.
func (cs *CreditSystem) OrderOf(batchID string) (Order, bool) {
	o, found, _ := cs.Lookup(batchID)
	return o, found
}
