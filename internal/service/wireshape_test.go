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

// bulkResults is the results of a bulk reply, each as compact raw JSON; the
// reply must carry n of them.
func bulkResults(t *testing.T, reply string, n int) []json.RawMessage {
	t.Helper()
	var r service.BulkReply[json.RawMessage]
	if err := json.Unmarshal([]byte(reply), &r); err != nil || len(r.Results) != n {
		t.Fatalf("bulk reply %s (want %d results): %v", reply, n, err)
	}
	for i, res := range r.Results {
		var compact bytes.Buffer
		if err := json.Compact(&compact, res); err != nil {
			t.Fatal(err)
		}
		r.Results[i] = compact.Bytes()
	}
	return r.Results
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
// summary and the full order byte for byte. Every bulk route answers only
// what its caller reads, and no result names its batch (results are
// positional): the key set of one result of each of the seven is pinned, and
// so are the bytes of a plan that starts nothing (it carries only its Wait)
// and of an item that only succeeded. A field added back to any of them is an edit of this test.
func TestWireShapes(t *testing.T) {
	fx := shapeFixture(t)
	infoURL, creditURL, oracleURL := fx.infoC.BaseURL, fx.creditC.BaseURL, fx.oracleC.BaseURL
	// b2 has no sample yet, so the default strategy's 9C trigger has not
	// fired for it.
	if err := fx.infoC.Track(service.TrackRequest{BatchID: "b2", EnvKey: "XWHEP/seti/SMALL", Size: 10}); err != nil {
		t.Fatal(err)
	}

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

	keys := func(route string, result json.RawMessage, want ...string) {
		t.Helper()
		if got := jsonKeys(t, result); !slices.Equal(got, want) {
			t.Errorf("POST %s result keys %q, want %q", route, got, want)
		}
	}
	bytesOf := func(route string, result json.RawMessage, want string) {
		t.Helper()
		if string(result) != want {
			t.Errorf("POST %s result %s, want %s", route, result, want)
		}
	}

	// What Oracle.Plan and the archive rule read (core.TickView), under the
	// two thirds of the 359 bytes the item took as the full summary.
	const fullStatusItem = 359
	status := bulkResults(t, replyBody(t, "POST", infoURL+"/statuses", `{"items":["b1"]}`), 1)[0]
	keys("/information/statuses", status, "status", "status.assigned", "status.completed", "status.completed_at",
		"status.exec_variance", "status.max_variance_first_half", "status.peak_workers", "status.size",
		"status.t", "status.tc50", "status.workers")
	if len(status) >= fullStatusItem*2/3 {
		t.Errorf("POST /information/statuses item is %d bytes, want under %d: %s", len(status), fullStatusItem*2/3, status)
	}
	// What the tick's Orders step reads.
	lookup := bulkResults(t, replyBody(t, "POST", creditURL+"/orders/lookup", `{"items":["b1"]}`), 1)[0]
	keys("/credit/orders/lookup", lookup, "has_credits", "remaining")
	bytesOf("/credit/orders/lookup", lookup, `{"has_credits":true,"remaining":36.25}`)

	// b1 is 92.5% complete, so 9C-C-R starts workers for it and says why; b2's
	// plan starts nothing and says to ask again at 9 of its 10 tasks complete.
	plans := bulkResults(t, replyBody(t, "POST", oracleURL+"/plans",
		`{"items":[{"batch_id":"b1","credit_cpu_hours":2},{"batch_id":"b2","credit_cpu_hours":2}]}`), 2)
	keys("/oracle/plans", plans[0], "plan", "plan.reason", "plan.start", "plan.workers")
	bytesOf("/oracle/plans", plans[1], `{"plan":{"wait":{"completed":9}}}`)

	bill := bulkResults(t, replyBody(t, "POST", creditURL+"/bills", `{"items":[{"batch_id":"b1","credits":[0.25]}]}`), 1)[0]
	keys("/credit/bills", bill, "applied", "exhausted")
	sample := bulkResults(t, replyBody(t, "POST", infoURL+"/samples",
		`{"items":[{"batch_id":"b1","sample":{"t":1300,"completed":190,"assigned":200}}]}`), 1)[0]
	bytesOf("/information/samples", sample, `{}`)
	pay := bulkResults(t, replyBody(t, "POST", creditURL+"/orders/pay", `{"items":["b1"]}`), 1)[0]
	keys("/credit/orders/pay", pay, "refund")
	cal := bulkResults(t, replyBody(t, "POST", oracleURL+"/calibrations",
		`{"items":[{"batch_id":"b1","env_key":"XWHEP/seti/SMALL"}]}`), 1)[0]
	bytesOf("/oracle/calibrations", cal, `{}`)
}
