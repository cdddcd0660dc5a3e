package service

// This file is the plumbing shared by the bulk routes: one request carries
// many batches' worth of one operation, so a Scheduler tick costs one round
// trip per module and step instead of one per batch. Every bulk route
//
//	Information  POST /samples         POST /statuses
//	Credit       POST /bills           POST /orders/lookup
//	Oracle       POST /plans
//
// takes {"items":[…]} and answers 200 {"results":[…]} with exactly one result
// per item, in request order. Each item goes through the same function as the
// module's single-item route and fails on its own: a result carrying "error"
// says nothing about its neighbours. The request as a whole is refused with
// a 4xx — before any item is applied — when it is malformed, carries unknown
// fields, is empty, names a batch twice, or exceeds maxBodyBytes.

import (
	"fmt"
	"net/http"
	"strings"
)

// bulkChunk is the most items a client puts in one bulk request. The largest
// item on the wire (a sample, a plan request, a status in the reply) is a few
// hundred bytes, so a full chunk stays far below maxBodyBytes; a tick over
// more batches sends ⌈batches/bulkChunk⌉ requests per step.
const bulkChunk = 1000

// BulkRequest is the body of every bulk route: the items to apply, in order.
type BulkRequest[I any] struct {
	// Items holds one entry per batch; a batch may appear only once.
	Items []I `json:"items"`
}

// BulkReply is the reply of every bulk route.
type BulkReply[R any] struct {
	// Results holds one entry per request item, in request order.
	Results []R `json:"results"`
}

// ItemResult is the outcome of a bulk item that returns nothing but success
// or failure.
type ItemResult struct {
	// BatchID names the batch the item was about.
	BatchID string `json:"batch_id"`
	// Error is empty on success.
	Error string `json:"error,omitempty"`
}

// itemErr turns a result's error text into the error the single-item client
// call would have returned for the same failure.
func itemErr(msg string) error {
	if msg == "" {
		return nil
	}
	return fmt.Errorf("service: %s", msg)
}

// checkBulk validates a decoded bulk request as a whole, so a refused request
// has mutated nothing. id extracts an item's batch id.
func checkBulk[I any](items []I, id func(I) string) error {
	if len(items) == 0 {
		return fmt.Errorf("service: bulk request has no items")
	}
	seen := make(map[string]struct{}, len(items))
	for _, it := range items {
		b := id(it)
		if b == "" {
			return fmt.Errorf("service: bulk item without a batch id")
		}
		if _, dup := seen[b]; dup {
			return fmt.Errorf("service: batch %q appears twice in one bulk request", b)
		}
		seen[b] = struct{}{}
	}
	return nil
}

// serveBulk is the endpoint of a bulk route whose items do not depend on one
// another: validate, apply item by item, reply.
func serveBulk[I, R any](id func(I) string, apply func(I) R) http.HandlerFunc {
	return Endpoint(http.StatusOK, func(_ *http.Request, req BulkRequest[I]) (BulkReply[R], error) {
		if err := checkBulk(req.Items, id); err != nil {
			return BulkReply[R]{}, Fail(http.StatusBadRequest, err)
		}
		results := make([]R, len(req.Items))
		for i, it := range req.Items {
			results[i] = apply(it)
		}
		return BulkReply[R]{Results: results}, nil
	})
}

// bulkCall sends items to a bulk route in chunks of at most bulkChunk (by
// weight: an item counts for the number of wire entries it carries) and
// returns one result per item, in order. It never fails as a whole: when a
// chunk's request fails, or its reply does not line up with it, each item of
// that chunk gets the result fail builds from the error text, and the other
// chunks stand — their items were applied, and the caller must know.
func bulkCall[I, R any](c *Client, route []string, items []I, weight func(I) int, fail func(I, string) R) []R {
	results := make([]R, 0, len(items))
	for lo := 0; lo < len(items); {
		hi, load := lo, 0
		for hi < len(items) && (hi == lo || load+weight(items[hi]) <= bulkChunk) {
			load += weight(items[hi])
			hi++
		}
		var reply BulkReply[R]
		err := c.Post(BulkRequest[I]{Items: items[lo:hi]}, &reply, route...)
		if err == nil && len(reply.Results) != hi-lo {
			err = fmt.Errorf("bulk reply carries %d results for %d items", len(reply.Results), hi-lo)
		}
		if err != nil {
			// itemErr puts the prefix back.
			msg := strings.TrimPrefix(err.Error(), "service: ")
			for _, it := range items[lo:hi] {
				results = append(results, fail(it, msg))
			}
		} else {
			results = append(results, reply.Results...)
		}
		lo = hi
	}
	return results
}

// oneEach is the weight of an item that is one wire entry.
func oneEach[I any](I) int { return 1 }

// sameID is the batch id of an item that is nothing but a batch id.
func sameID(id string) string { return id }
