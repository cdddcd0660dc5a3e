package service_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"strings"
	"testing"

	"spequlos/internal/core"
	"spequlos/internal/service"
)

// shapeFixture is the four modules, each on its own socket, holding one
// scripted batch "b1": 200 tasks, three samples, an order of 40 credits
// billed twice.
func shapeFixture(t *testing.T) *wireFixture {
	t.Helper()
	fx := newWireFixture(t, false)
	if err := fx.infoC.Track(service.TrackRequest{BatchID: "b1", EnvKey: "XWHEP/seti/SMALL", Size: 200, SubmittedAt: 1.7e9}); err != nil {
		t.Fatal(err)
	}
	for _, s := range []core.Sample{
		{T: 60.25, Completed: 10, Assigned: 70, Queued: 130, Running: 60, Workers: 64},
		{T: 600.5, Completed: 110, Assigned: 190, Queued: 10, Running: 80, Workers: 70},
		{T: 1234.75, Completed: 185, Assigned: 200, Running: 15, Workers: 41},
	} {
		if res := fx.infoC.AddSamples([]service.BatchSample{{BatchID: "b1", Sample: s}}); res[0].Error != "" {
			t.Fatal(res[0].Error)
		}
	}
	if err := fx.creditC.Deposit("alice", 100); err != nil {
		t.Fatal(err)
	}
	if err := fx.creditC.Order("alice", "b1", 40); err != nil {
		t.Fatal(err)
	}
	if res := fx.creditC.Bills([]service.BillItem{{BatchID: "b1", Credits: []float64{1.5, 2.25}}}); res[0].Error != "" {
		t.Fatal(res[0].Error)
	}
	return fx
}

// replyBody sends one request and returns its 200 reply's body.
func replyBody(t *testing.T, method, url, req string) string {
	t.Helper()
	r, err := http.NewRequest(method, url, strings.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(r)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: %d %s", method, url, resp.StatusCode, b)
	}
	return string(b)
}

// firstResult is the first result of a bulk reply, as raw JSON.
func firstResult(t *testing.T, reply string) json.RawMessage {
	t.Helper()
	var r service.BulkReply[json.RawMessage]
	if err := json.Unmarshal([]byte(reply), &r); err != nil || len(r.Results) != 1 {
		t.Fatalf("bulk reply %s: %v", reply, err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, r.Results[0]); err != nil {
		t.Fatal(err)
	}
	return compact.Bytes()
}

// jsonKeys is the key set of a JSON object, nested objects' keys prefixed
// with their parent's, sorted.
func jsonKeys(t *testing.T, obj json.RawMessage) []string {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(obj, &m); err != nil {
		t.Fatal(err)
	}
	var out []string
	for k, v := range m {
		out = append(out, k)
		if bytes.HasPrefix(v, []byte("{")) {
			for _, sub := range jsonKeys(t, v) {
				out = append(out, k+"."+sub)
			}
		}
	}
	slices.Sort(out)
	return out
}

// TestWireShapes pins the bodies a client reads. The two single-item reads,
// GET /information/batches/{id} and GET /credit/orders/{id}, answer the full
// summary and the full order byte for byte. The two bulk reads a Scheduler
// tick makes, POST /information/statuses and POST /credit/orders/lookup,
// answer only what the tick reads: a field added back to them is an edit of
// this test.
func TestWireShapes(t *testing.T) {
	fx := shapeFixture(t)
	infoURL, creditURL := fx.infoC.BaseURL, fx.creditC.BaseURL

	const wantStatus = `{"batch_id":"b1","env_key":"XWHEP/seti/SMALL","size":200,"samples":3,` +
		`"completed_fraction":0.925,"assigned_fraction":1,"done":false,"completed_at":-1,` +
		`"last_sample":{"t":1234.75,"completed":185,"assigned":200,"queued":0,"running":15,"workers":41},` +
		`"exec_variance":634.25,"max_variance_first_half":540.25,"tc50":600.5,"peak_workers":70}` + "\n"
	if got := replyBody(t, "GET", infoURL+"/batches/b1", ""); got != wantStatus {
		t.Errorf("GET /information/batches/b1 answered\n%s\nwant\n%s", got, wantStatus)
	}
	const wantOrder = `{"batch_id":"b1","user":"alice","allocated":40,"billed":3.75,"closed":false}` + "\n"
	if got := replyBody(t, "GET", creditURL+"/orders/b1", ""); got != wantOrder {
		t.Errorf("GET /credit/orders/b1 answered\n%s\nwant\n%s", got, wantOrder)
	}

	// What Oracle.Plan and the archive rule read (core.TickView), under the
	// two thirds of the 359 bytes the item took as the full summary.
	const fullStatusItem = 359
	status := firstResult(t, replyBody(t, "POST", infoURL+"/statuses", `{"items":["b1"]}`))
	wantKeys := []string{"batch_id", "status", "status.assigned", "status.completed", "status.completed_at",
		"status.exec_variance", "status.max_variance_first_half", "status.peak_workers", "status.size",
		"status.t", "status.tc50", "status.workers"}
	if got := jsonKeys(t, status); !slices.Equal(got, wantKeys) {
		t.Errorf("POST /information/statuses item keys %q, want %q", got, wantKeys)
	}
	if len(status) >= fullStatusItem*2/3 {
		t.Errorf("POST /information/statuses item is %d bytes, want under %d: %s", len(status), fullStatusItem*2/3, status)
	}
	// What the tick's Orders step reads.
	lookup := firstResult(t, replyBody(t, "POST", creditURL+"/orders/lookup", `{"items":["b1"]}`))
	if got, want := jsonKeys(t, lookup), []string{"batch_id", "found", "has_credits", "remaining"}; !slices.Equal(got, want) {
		t.Errorf("POST /credit/orders/lookup item keys %q, want %q", got, want)
	}
	if want := `{"batch_id":"b1","found":true,"has_credits":true,"remaining":36.25}`; string(lookup) != want {
		t.Errorf("POST /credit/orders/lookup item %s, want %s", lookup, want)
	}
}
