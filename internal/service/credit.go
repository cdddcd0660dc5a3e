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
//	POST /orders/{id}/bill   {credits} → {billed, exhausted}
//	POST /orders/{id}/pay    → {refund}
//	GET  /orders/{id}
//	GET  /accounts/{user}
//	GET  /has-credits/{id}   → {has_credits}
//	POST /bills              charge many orders, each an ordered list of bills
//	POST /orders/lookup      order and has-credits of many batches
//
// The two bulk routes (see bulk.go) are the Scheduler tick's: /bills is
// /orders/{id}/bill applied charge by charge, /orders/lookup is
// /has-credits/{id} and /orders/{id} in one answer.
type CreditService struct {
	Routes
	credits *core.CreditSystem
}

// NewCreditService wraps a credit system.
func NewCreditService(cs *core.CreditSystem) *CreditService {
	s := &CreditService{credits: cs}
	s.Handle("POST /deposit", Endpoint(http.StatusOK, func(_ *http.Request, req DepositRequest) (core.Account, error) {
		if err := cs.Deposit(req.User, req.Credits); err != nil {
			return core.Account{}, Fail(http.StatusBadRequest, err)
		}
		return cs.AccountOf(req.User), nil
	}))
	s.Handle("POST /orders", Endpoint(http.StatusCreated, func(_ *http.Request, req OrderRequest) (core.Order, error) {
		err := cs.OrderQoS(req.User, req.BatchID, req.Credits)
		o, _ := cs.OrderOf(req.BatchID)
		return o, Fail(http.StatusConflict, err)
	}))
	s.Handle("POST /orders/{id}/bill", Endpoint(http.StatusOK, func(r *http.Request, req BillRequest) (BillReply, error) {
		billed, exhausted, err := cs.Bill(r.PathValue("id"), req.Credits)
		return BillReply{Billed: billed, Exhausted: exhausted}, Fail(http.StatusConflict, err)
	}))
	s.Handle("POST /orders/{id}/pay", EndpointNoBody(http.StatusOK, func(r *http.Request) (PayReply, error) {
		refund, err := cs.Pay(r.PathValue("id"))
		return PayReply{Refund: refund}, Fail(http.StatusNotFound, err)
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
	s.Handle("GET /has-credits/{id}", EndpointNoBody(http.StatusOK, func(r *http.Request) (map[string]bool, error) {
		return map[string]bool{"has_credits": cs.HasCredits(r.PathValue("id"))}, nil
	}))
	s.Handle("POST /bills", serveBulk(func(it BillItem) string { return it.BatchID }, func(it BillItem) BillResult {
		res := BillResult{BatchID: it.BatchID}
		var err error
		if res.Applied, res.Exhausted, err = cs.BillAll(it.BatchID, it.Credits); err != nil {
			res.Error = err.Error()
		}
		return res
	}))
	s.Handle("POST /orders/lookup", serveBulk(sameID, func(id string) OrderLookup {
		o, found, has := cs.Lookup(id)
		return OrderLookup{BatchID: id, Found: found, HasCredits: has, Order: o}
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

// BillRequest charges cloud usage to a batch order.
type BillRequest struct {
	Credits float64 `json:"credits"`
}

// BillReply reports the outcome of a billing call.
type BillReply struct {
	Billed    float64 `json:"billed"`
	Exhausted bool    `json:"exhausted"`
}

// BillItem is one item of POST /bills: the charges against one batch's order,
// in the order they are to be applied (one per cloud instance). The amounts
// are applied one by one, never summed, so a bulk tick bills exactly what the
// same charges sent one request each would.
type BillItem struct {
	// BatchID names the order.
	BatchID string `json:"batch_id"`
	// Credits are the amounts to charge, applied in order until the order
	// runs dry.
	Credits []float64 `json:"credits"`
}

// BillResult is one result of POST /bills.
type BillResult struct {
	// BatchID names the order.
	BatchID string `json:"batch_id"`
	// Applied is how many of the item's charges were applied, counted from
	// the first and including the one that ran the order dry. The rest were
	// not: the caller's usage windows for them stay open.
	Applied int `json:"applied"`
	// Exhausted reports that the order ran dry.
	Exhausted bool `json:"exhausted"`
	// Error is the failure that stopped the item, empty if none did.
	Error string `json:"error,omitempty"`
}

// OrderLookup is one result of POST /orders/lookup. A batch without an order
// is not an error: Found and HasCredits are false.
type OrderLookup struct {
	// BatchID names the batch.
	BatchID string `json:"batch_id"`
	// Found reports whether the batch has an order, open or closed.
	Found bool `json:"found"`
	// HasCredits is what GET /has-credits/{id} answers.
	HasCredits bool `json:"has_credits"`
	// Order is what GET /orders/{id} answers (zero unless Found).
	Order core.Order `json:"order"`
	// Error is set only by the client, when the request as a whole failed.
	Error string `json:"error,omitempty"`
}

// PayReply reports the refund of a closed order.
type PayReply struct {
	Refund float64 `json:"refund"`
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
		func(it BillItem, msg string) BillResult { return BillResult{BatchID: it.BatchID, Error: msg} })
}

// Orders looks many batches' orders up with POST /orders/lookup and returns
// one result per id, in order.
func (c *CreditClient) Orders(batchIDs []string) []OrderLookup {
	return bulkCall(&c.Client, []string{"orders", "lookup"}, batchIDs, oneEach,
		func(id, msg string) OrderLookup { return OrderLookup{BatchID: id, Error: msg} })
}

// Pay closes an order, returning the refund.
func (c *CreditClient) Pay(batchID string) (float64, error) {
	var out PayReply
	err := c.Post(struct{}{}, &out, "orders", batchID, "pay")
	return out.Refund, err
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
