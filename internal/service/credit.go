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
	credits *core.CreditSystem
}

// NewCreditService wraps a credit system.
func NewCreditService(cs *core.CreditSystem) *CreditService {
	return &CreditService{credits: cs}
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

// ServeHTTP implements http.Handler.
func (s *CreditService) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/deposit":
		var req DepositRequest
		if err := readJSON(r, &req); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		if err := s.credits.Deposit(req.User, req.Credits); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, s.creditsAccount(req.User))

	case r.Method == http.MethodPost && r.URL.Path == "/orders":
		var req OrderRequest
		if err := readJSON(r, &req); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		if err := s.credits.OrderQoS(req.User, req.BatchID, req.Credits); err != nil {
			writeErr(w, http.StatusConflict, err)
			return
		}
		o, _ := s.credits.OrderOf(req.BatchID)
		writeJSON(w, http.StatusCreated, o)

	case r.Method == http.MethodPost && segmentsMatch(r.URL.Path, "orders", "bill"):
		id := middleSegment(r.URL.Path, "orders")
		var req BillRequest
		if err := readJSON(r, &req); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		billed, exhausted, err := s.credits.Bill(id, req.Credits)
		if err != nil {
			writeErr(w, http.StatusConflict, err)
			return
		}
		writeJSON(w, http.StatusOK, BillReply{Billed: billed, Exhausted: exhausted})

	case r.Method == http.MethodPost && r.URL.Path == "/bills":
		serveBulk(w, r, func(it BillItem) string { return it.BatchID }, s.billAll)

	case r.Method == http.MethodPost && r.URL.Path == "/orders/lookup":
		serveBulk(w, r, sameID, func(id string) OrderLookup {
			o, found, has := s.credits.Lookup(id)
			return OrderLookup{BatchID: id, Found: found, HasCredits: has, Order: o}
		})

	case r.Method == http.MethodPost && segmentsMatch(r.URL.Path, "orders", "pay"):
		id := middleSegment(r.URL.Path, "orders")
		refund, err := s.credits.Pay(id)
		if err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, PayReply{Refund: refund})

	case r.Method == http.MethodGet && pathTail(r.URL.Path, "/orders/") != "":
		id := pathTail(r.URL.Path, "/orders/")
		o, ok := s.credits.OrderOf(id)
		if !ok {
			writeErr(w, http.StatusNotFound, fmt.Errorf("no order for batch %q", id))
			return
		}
		writeJSON(w, http.StatusOK, o)

	case r.Method == http.MethodGet && pathTail(r.URL.Path, "/accounts/") != "":
		writeJSON(w, http.StatusOK, s.creditsAccount(pathTail(r.URL.Path, "/accounts/")))

	case r.Method == http.MethodGet && pathTail(r.URL.Path, "/has-credits/") != "":
		id := pathTail(r.URL.Path, "/has-credits/")
		writeJSON(w, http.StatusOK, map[string]bool{"has_credits": s.credits.HasCredits(id)})

	default:
		writeErr(w, http.StatusNotFound, fmt.Errorf("no route %s %s", r.Method, r.URL.Path))
	}
}

// billAll is one item of POST /bills.
func (s *CreditService) billAll(it BillItem) BillResult {
	res := BillResult{BatchID: it.BatchID}
	var err error
	if res.Applied, res.Exhausted, err = s.credits.BillAll(it.BatchID, it.Credits); err != nil {
		res.Error = err.Error()
	}
	return res
}

func (s *CreditService) creditsAccount(user string) core.Account {
	return s.credits.AccountOf(user)
}

func segmentsMatch(path, first, last string) bool {
	parts := splitSegments(path)
	return len(parts) == 3 && parts[0] == first && parts[2] == last
}

func middleSegment(path, first string) string {
	parts := splitSegments(path)
	if len(parts) == 3 && parts[0] == first {
		return parts[1]
	}
	return ""
}

// CreditClient is the typed client of the Credit service.
type CreditClient struct {
	BaseURL string
	HTTP    *http.Client
}

// NewCreditClient builds a client for the given base URL.
func NewCreditClient(baseURL string) *CreditClient {
	return &CreditClient{BaseURL: baseURL, HTTP: http.DefaultClient}
}

func (c *CreditClient) post(path string, body, out any) error {
	return postJSON(c.HTTP, c.BaseURL+path, body, out)
}

// Deposit funds a user account.
func (c *CreditClient) Deposit(user string, credits float64) error {
	return c.post("/deposit", DepositRequest{User: user, Credits: credits}, nil)
}

// Order provisions credits for a batch.
func (c *CreditClient) Order(user, batchID string, credits float64) error {
	return c.post("/orders", OrderRequest{User: user, BatchID: batchID, Credits: credits}, nil)
}

// Bill charges credits against a batch order.
func (c *CreditClient) Bill(batchID string, credits float64) (BillReply, error) {
	var out BillReply
	err := c.post("/orders/"+batchID+"/bill", BillRequest{Credits: credits}, &out)
	return out, err
}

// Bills charges many orders with POST /bills and returns one result per item,
// in order. A request that fails as a whole is reported in the results of the
// items it carried, with Applied 0.
func (c *CreditClient) Bills(items []BillItem) []BillResult {
	return bulkCall(c.HTTP, c.BaseURL+"/bills", items,
		func(it BillItem) int { return max(1, len(it.Credits)) },
		func(it BillItem, msg string) BillResult { return BillResult{BatchID: it.BatchID, Error: msg} })
}

// Orders looks many batches' orders up with POST /orders/lookup and returns
// one result per id, in order.
func (c *CreditClient) Orders(batchIDs []string) []OrderLookup {
	return bulkCall(c.HTTP, c.BaseURL+"/orders/lookup", batchIDs, oneEach,
		func(id, msg string) OrderLookup { return OrderLookup{BatchID: id, Error: msg} })
}

// Pay closes an order, returning the refund.
func (c *CreditClient) Pay(batchID string) (float64, error) {
	var out PayReply
	err := c.post("/orders/"+batchID+"/pay", struct{}{}, &out)
	return out.Refund, err
}

// HasCredits reports whether a batch has an open, funded order.
func (c *CreditClient) HasCredits(batchID string) (bool, error) {
	var out map[string]bool
	err := getJSON(c.HTTP, c.BaseURL+"/has-credits/"+batchID, &out)
	return out["has_credits"], err
}

// Account fetches a user's account.
func (c *CreditClient) Account(user string) (a core.Account, err error) {
	err = getJSON(c.HTTP, c.BaseURL+"/accounts/"+user, &a)
	return a, err
}

// OrderOf fetches a batch's order.
func (c *CreditClient) OrderOf(batchID string) (o core.Order, err error) {
	err = getJSON(c.HTTP, c.BaseURL+"/orders/"+batchID, &o)
	return o, err
}
