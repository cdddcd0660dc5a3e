package core

import (
	"fmt"
	"sort"
	"sync"
)

// CreditsPerCPUHour is the fixed exchange rate of the Credit System (§3.3:
// "1 CPU.hour of Cloud worker usage costs 15 credits").
const CreditsPerCPUHour = 15.0

// CreditSystem is the SpeQuloS billing and accounting module: it manages
// user accounts, QoS orders attached to BoTs, per-period billing of cloud
// usage, and the final payment that refunds unspent credits (§3.3). It is
// safe for concurrent use, and scales under contention: the maps are only
// guarded for lookup and insertion, while every account and order carries
// its own lock, so the Credit service's concurrent handlers billing
// different batches never serialize on a global mutex. Lock order is maps →
// order → account; the map lock is never acquired while an entry lock is held.
type CreditSystem struct {
	mu       sync.RWMutex // guards the maps; entry locks guard the values
	accounts map[string]*creditAccount
	orders   map[string]*creditOrder
	rate     float64
}

// creditAccount stripes the ledger per account: the embedded value is
// guarded by its own lock, not the CreditSystem mutex. User is immutable
// after creation and may be read without the lock.
type creditAccount struct {
	mu sync.Mutex
	Account
}

// creditOrder stripes the ledger per order. BatchID and User are immutable
// after creation and may be read without the lock.
type creditOrder struct {
	mu sync.Mutex
	Order
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
		accounts: map[string]*creditAccount{},
		orders:   map[string]*creditOrder{},
		rate:     CreditsPerCPUHour,
	}
}

// Rate returns credits per CPU·hour.
func (cs *CreditSystem) Rate() float64 { return cs.rate }

// CreditsForCPUSeconds converts cloud CPU time to credits.
func (cs *CreditSystem) CreditsForCPUSeconds(sec float64) float64 {
	return sec / 3600 * cs.rate
}

// CPUHoursFor converts credits to CPU·hours of cloud usage.
func (cs *CreditSystem) CPUHoursFor(credits float64) float64 { return credits / cs.rate }

// Deposit adds credits to a user account, creating it on first use.
func (cs *CreditSystem) Deposit(user string, credits float64) error {
	if credits < 0 {
		return fmt.Errorf("credit: negative deposit %g", credits)
	}
	a := cs.account(user)
	a.mu.Lock()
	a.Balance += credits
	a.mu.Unlock()
	return nil
}

// account returns the user's entry, creating it on first use. It takes the
// map lock only; callers lock the entry before touching balances.
func (cs *CreditSystem) account(user string) *creditAccount {
	cs.mu.RLock()
	a, ok := cs.accounts[user]
	cs.mu.RUnlock()
	if ok {
		return a
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if a, ok := cs.accounts[user]; ok {
		return a
	}
	a = &creditAccount{Account: Account{User: user}}
	cs.accounts[user] = a
	return a
}

// orderOf returns the batch's order entry, if any.
func (cs *CreditSystem) orderOf(batchID string) (*creditOrder, bool) {
	cs.mu.RLock()
	o, ok := cs.orders[batchID]
	cs.mu.RUnlock()
	return o, ok
}

// AccountOf returns a copy of the user's account state.
func (cs *CreditSystem) AccountOf(user string) Account {
	a := cs.account(user)
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.Account
}

// OrderQoS provisions credits from the user's account for a BoT (§3.3:
// "The Credit System verifies that there are enough credits on the user's
// account to allow the order, and then it provisions credits to the BoT").
func (cs *CreditSystem) OrderQoS(user, batchID string, credits float64) error {
	if credits <= 0 {
		return fmt.Errorf("credit: order must be positive, got %g", credits)
	}
	// Order creation takes the map write lock for the whole check-and-insert
	// so two concurrent orders for one batch cannot both pass the "already
	// open" test. Orders are rare (once per batch) — billing never comes
	// through here.
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if o, ok := cs.orders[batchID]; ok {
		o.mu.Lock()
		open := !o.Closed
		o.mu.Unlock()
		if open {
			return fmt.Errorf("credit: batch %q already has an open order", batchID)
		}
	}
	a, ok := cs.accounts[user]
	if !ok {
		a = &creditAccount{Account: Account{User: user}}
		cs.accounts[user] = a
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.Balance < credits {
		return fmt.Errorf("credit: %s has %.1f credits, needs %.1f", user, a.Balance, credits)
	}
	a.Balance -= credits
	cs.orders[batchID] = &creditOrder{Order: Order{BatchID: batchID, User: user, Allocated: credits}}
	return nil
}

// Lookup returns the batch's order, whether there is one, and whether it is
// open with credits left (Algorithm 1's CreditSystem.hasCredits), all as of
// one instant.
func (cs *CreditSystem) Lookup(batchID string) (o Order, found, hasCredits bool) {
	e, ok := cs.orderOf(batchID)
	if !ok {
		return Order{}, false, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.Order, true, !e.Closed && e.Remaining() > 1e-9
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
	if credits < 0 {
		return 0, false, fmt.Errorf("credit: negative bill %g", credits)
	}
	o, ok := cs.orderOf(batchID)
	if !ok {
		return 0, true, fmt.Errorf("credit: no open order for batch %q", batchID)
	}
	o.mu.Lock()
	if o.Closed {
		o.mu.Unlock()
		return 0, true, fmt.Errorf("credit: no open order for batch %q", batchID)
	}
	billed = credits
	if rem := o.Remaining(); billed >= rem {
		billed = rem
		exhausted = true
	}
	o.Billed += billed
	o.mu.Unlock()
	a := cs.account(o.User)
	a.mu.Lock()
	a.Spent += billed
	a.mu.Unlock()
	return billed, exhausted, nil
}

// BillAll applies one batch's charges in order and stops at the first that
// fails or runs the order dry: applied counts them from the first, including
// the one that ran dry. The amounts are applied one by one, never summed.
func (cs *CreditSystem) BillAll(batchID string, charges []float64) (applied int, exhausted bool, err error) {
	for _, c := range charges {
		if _, exhausted, err = cs.Bill(batchID, c); err != nil {
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
	o, ok := cs.orderOf(batchID)
	if !ok {
		return 0, fmt.Errorf("credit: no order for batch %q", batchID)
	}
	o.mu.Lock()
	if o.Closed {
		o.mu.Unlock()
		return 0, nil
	}
	o.Closed = true
	refund = o.Remaining()
	o.mu.Unlock()
	a := cs.account(o.User)
	a.mu.Lock()
	a.Balance += refund
	a.mu.Unlock()
	return refund, nil
}

// OrderOf returns a copy of the batch's order.
func (cs *CreditSystem) OrderOf(batchID string) (Order, bool) {
	o, found, _ := cs.Lookup(batchID)
	return o, found
}

// Users lists known accounts, sorted.
func (cs *CreditSystem) Users() []string {
	cs.mu.RLock()
	out := make([]string, 0, len(cs.accounts))
	for u := range cs.accounts {
		out = append(out, u)
	}
	cs.mu.RUnlock()
	sort.Strings(out)
	return out
}

// DepositPolicy provisions user accounts periodically (§3.3: administrators
// control cloud usage through deposit policies).
type DepositPolicy interface {
	// Apply returns the credits to deposit for the account.
	Apply(a Account) float64
	Name() string
}

// TopUpPolicy refills an account up to Cap credits each period — the
// paper's example policy limiting a user's daily cloud usage (its printed
// formula d = max(6000, 6000−spent) reads as a top-up to 6000; we implement
// the top-up semantics).
type TopUpPolicy struct{ Cap float64 }

// Apply implements DepositPolicy.
func (p TopUpPolicy) Apply(a Account) float64 {
	if d := p.Cap - a.Balance; d > 0 {
		return d
	}
	return 0
}

// Name implements DepositPolicy.
func (p TopUpPolicy) Name() string { return fmt.Sprintf("topup(%g)", p.Cap) }

// FixedPolicy deposits a constant amount each period.
type FixedPolicy struct{ Amount float64 }

// Apply implements DepositPolicy.
func (p FixedPolicy) Apply(Account) float64 { return p.Amount }

// Name implements DepositPolicy.
func (p FixedPolicy) Name() string { return fmt.Sprintf("fixed(%g)", p.Amount) }

// ApplyPolicy runs a deposit policy over every account.
func (cs *CreditSystem) ApplyPolicy(p DepositPolicy) {
	cs.mu.RLock()
	accounts := make([]*creditAccount, 0, len(cs.accounts))
	for _, a := range cs.accounts {
		accounts = append(accounts, a)
	}
	cs.mu.RUnlock()
	for _, a := range accounts {
		a.mu.Lock()
		a.Balance += p.Apply(a.Account)
		a.mu.Unlock()
	}
}
