package service

import (
	"fmt"
	"net/http"

	"spequlos/internal/core"
)

// CreditService exposes the Credit System over HTTP (§3.3):
//
//	POST /deposit            {user, credits}
//	POST /orders             {user, batch_id, credits}
//	GET  /orders/{id}
//	GET  /accounts/{user}
//	POST /bills              charge many orders, each an ordered list of bills
//	POST /orders/lookup      has-credits and remaining credits of many batches
//	POST /orders/pay         close and refund many orders
//
// The three bulk routes (see bulk.go) are the Scheduler's only way to bill,
// query and close orders: a tick sends each of them once, and a refused
// registration refunds its order through /orders/pay.
type CreditService struct {
	Routes
	credits *core.CreditSystem
}

// NewCreditService wraps a credit system.
func NewCreditService(cs *core.CreditSystem) *CreditService {
	s := &CreditService{credits: cs}
	s.Handle("POST /deposit", Endpoint(http.StatusOK, func(_ *http.Request, req DepositRequest) (core.Account, error) {
		err := cs.Deposit(req.User, req.Credits)
		return cs.AccountOf(req.User), Fail(http.StatusBadRequest, err)
	}))
	s.Handle("POST /orders", Endpoint(http.StatusCreated, func(_ *http.Request, req OrderRequest) (core.Order, error) {
		err := cs.OrderQoS(req.User, req.BatchID, req.Credits)
		o, _ := cs.OrderOf(req.BatchID)
		return o, Fail(http.StatusConflict, err)
	}))
	s.Handle("GET /orders/{id}", EndpointNoBody(http.StatusOK, func(r *http.Request) (core.Order, error) {
		o, ok := cs.OrderOf(r.PathValue("id"))
		if !ok {
			return o, Fail(http.StatusNotFound, fmt.Errorf("no order for batch %q", r.PathValue("id")))
		}
		return o, nil
	}))
	s.Handle("GET /accounts/{user}", EndpointNoBody(http.StatusOK, func(r *http.Request) (core.Account, error) {
		return cs.AccountOf(r.PathValue("user")), nil
	}))
	s.Handle("POST /bills", serveBulk(func(it BillItem) string { return it.BatchID }, func(it BillItem) BillResult {
		var res BillResult
		var err error
		if res.Applied, res.Exhausted, err = cs.BillAll(it.BatchID, it.Credits); err != nil {
			res.Error = err.Error()
		}
		return res
	}))
	s.Handle("POST /orders/lookup", serveBulk(sameID, func(id string) OrderLookup {
		o, _, has := cs.Lookup(id)
		return OrderLookup{HasCredits: has, Remaining: o.Remaining()}
	}))
	s.Handle("POST /orders/pay", serveBulk(sameID, func(id string) PayResult {
		var res PayResult
		var err error
		if res.Refund, err = cs.Pay(id); err != nil {
			res.Error = err.Error()
		}
		return res
	}))
	return s
}

// Credits exposes the wrapped system (for co-located modules).
func (s *CreditService) Credits() *core.CreditSystem { return s.credits }

// DepositRequest funds a user account.
type DepositRequest struct {
	User    string  `json:"user"`
	Credits float64 `json:"credits"`
}

// OrderRequest provisions credits for a batch.
type OrderRequest struct {
	User    string  `json:"user"`
	BatchID string  `json:"batch_id"`
	Credits float64 `json:"credits"`
}

// BillItem is one item of POST /bills: the charges against one batch's order,
// in the order they are to be applied (one per cloud instance). The amounts
// are applied one by one, never summed (core.CreditSystem.BillAll), so a bulk
// tick bills exactly what the simulator's tick does.
type BillItem struct {
	// BatchID names the order.
	BatchID string `json:"batch_id"`
	// Credits are the amounts to charge, applied in order until the order
	// runs dry.
	Credits []float64 `json:"credits"`
}

// BillResult is one result of POST /bills.
type BillResult struct {
	// Applied is how many of the item's charges were applied, counted from
	// the first and including the one that ran the order dry. The rest were
	// not: the caller's usage windows for them stay open.
	Applied int `json:"applied"`
	// Exhausted reports that the order ran dry.
	Exhausted bool `json:"exhausted"`
	// Error is the failure that stopped the item, empty if none did.
	Error string `json:"error,omitempty"`
}

// OrderLookup is one result of POST /orders/lookup: what a Scheduler tick
// reads of an order (GET /orders/{id} answers the whole order). A batch
// without an order is not an error: HasCredits is false and Remaining 0.
type OrderLookup struct {
	// HasCredits reports an open order with credits left (Algorithm 1's
	// CreditSystem.hasCredits).
	HasCredits bool `json:"has_credits"`
	// Remaining is the order's unbilled credits (core.Order.Remaining; 0
	// for a batch without an order).
	Remaining float64 `json:"remaining"`
	// Error is set only by the client, when the request as a whole failed.
	Error string `json:"error,omitempty"`
}

// PayResult is one result of POST /orders/pay: the batch's order closed and
// its unspent credits refunded.
type PayResult struct {
	// Refund is the credits returned to the user; 0 for an order already
	// closed.
	Refund float64 `json:"refund"`
	// Error is empty on success.
	Error string `json:"error,omitempty"`
}

// CreditClient is the typed client of the Credit service.
type CreditClient struct{ Client }

// NewCreditClient builds a client for the given base URL.
func NewCreditClient(baseURL string) *CreditClient {
	return &CreditClient{Client{BaseURL: baseURL, HTTP: http.DefaultClient}}
}

// Deposit funds a user account.
func (c *CreditClient) Deposit(user string, credits float64) error {
	return c.Post(DepositRequest{User: user, Credits: credits}, nil, "deposit")
}

// Order provisions credits for a batch.
func (c *CreditClient) Order(user, batchID string, credits float64) error {
	return c.Post(OrderRequest{User: user, BatchID: batchID, Credits: credits}, nil, "orders")
}

// Bills charges many orders with POST /bills and returns one result per item,
// in order. A request that fails as a whole is reported in the results of the
// items it carried, with Applied 0.
func (c *CreditClient) Bills(items []BillItem) []BillResult {
	return bulkCall(&c.Client, []string{"bills"}, items,
		func(it BillItem) int { return max(1, len(it.Credits)) },
		func(msg string) BillResult { return BillResult{Error: msg} })
}

// Orders looks many batches' orders up with POST /orders/lookup and returns
// one result per id, in order.
func (c *CreditClient) Orders(batchIDs []string) []OrderLookup {
	return bulkCall(&c.Client, []string{"orders", "lookup"}, batchIDs, oneEach,
		func(msg string) OrderLookup { return OrderLookup{Error: msg} })
}

// Pays closes many orders with POST /orders/pay and returns one result per
// id, in order.
func (c *CreditClient) Pays(batchIDs []string) []PayResult {
	return bulkCall(&c.Client, []string{"orders", "pay"}, batchIDs, oneEach,
		func(msg string) PayResult { return PayResult{Error: msg} })
}

// Account fetches a user's account.
func (c *CreditClient) Account(user string) (a core.Account, err error) {
	err = c.Get(&a, "accounts", user)
	return a, err
}

// OrderOf fetches a batch's order.
func (c *CreditClient) OrderOf(batchID string) (o core.Order, err error) {
	err = c.Get(&o, "orders", batchID)
	return o, err
}
