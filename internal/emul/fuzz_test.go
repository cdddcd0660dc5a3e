package emul

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"spequlos/internal/middleware"
)

// fuzzWire is a minimal DG gateway: deterministic progress for any batch,
// naming one idle instance.
type fuzzWire struct{}

func (fuzzWire) ProgressBatch(ids []string) (map[string]middleware.Progress, error) {
	out := make(map[string]middleware.Progress, len(ids))
	for _, id := range ids {
		out[id] = middleware.Progress{Size: 3, Arrived: 3, Completed: 1, EverAssigned: 2, Running: 1,
			IdleInstances: []string{"i-1"}}
	}
	return out, nil
}

func (fuzzWire) WorkerURL() string { return "http://fuzz.invalid/worker" }

// FuzzProgressBatch fuzzes the DG gateway's aggregated progress route — the
// wire endpoint every Scheduler tick hits. Whatever the body (malformed
// JSON, oversized payloads, wrong shapes), the handler must never panic and
// must always answer JSON: 200 with a progress map or 4xx with an error.
func FuzzProgressBatch(f *testing.F) {
	f.Add([]byte(`{"ids":["b1","b2"]}`))
	f.Add([]byte(`{"ids":[]}`))
	f.Add([]byte(`{"ids":null}`))
	f.Add([]byte(`{bogus`))
	f.Add([]byte(``))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"ids":"b1"}`))
	f.Add([]byte(`{"ids":[1,2,3]}`))
	f.Add([]byte(`[{"ids":["b1"]}]`))
	f.Add([]byte(`{"ids":["` + string(make([]byte, 4096)) + `"]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		h := NewGatewayHandler(fuzzWire{})
		req := httptest.NewRequest(http.MethodPost, "/progress-batch", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK && (rec.Code < 400 || rec.Code >= 500) {
			t.Fatalf("status %d for %q, want 200 or a 4xx", rec.Code, body)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("non-JSON response %q for %q", rec.Body.Bytes(), body)
		}
		if rec.Code == http.StatusOK {
			var reply struct {
				Progress map[string]middleware.Progress `json:"progress"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
				t.Fatalf("200 reply does not decode as a progress map: %v", err)
			}
			for id, p := range reply.Progress {
				if !slices.Equal(p.IdleInstances, []string{"i-1"}) {
					t.Fatalf("batch %q: idle instances %q, want [i-1]", id, p.IdleInstances)
				}
			}
		}
	})
}

// TestProgressBatchBodyCap pins the gateway wire's request-size ceiling.
func TestProgressBatchBodyCap(t *testing.T) {
	ids := make([]string, 0, 1<<16)
	for i := 0; i < 1<<16; i++ {
		ids = append(ids, fmt.Sprintf("batch-%032d", i))
	}
	body, err := json.Marshal(map[string][]string{"ids": ids})
	if err != nil {
		t.Fatal(err)
	}
	if len(body) <= 1<<20 { // the cap of service.Endpoint, which serves this wire
		t.Fatalf("test payload too small to exercise the cap: %d bytes", len(body))
	}
	h := NewGatewayHandler(fuzzWire{})
	req := httptest.NewRequest(http.MethodPost, "/progress-batch", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("oversized progress-batch: status %d, want 400", rec.Code)
	}
	if !json.Valid(rec.Body.Bytes()) {
		t.Fatalf("non-JSON response %q", rec.Body.Bytes())
	}
}
