package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"spequlos/internal/cloud"
	"spequlos/internal/core"
)

// bulkFixture is one tracked, funded batch ("b", user "u") behind standalone
// module handlers, and a digest of everything a bulk request could mutate.
type bulkFixture struct {
	info    *InformationService
	credits *core.CreditSystem
	modules map[string]http.Handler
}

func newBulkFixture(t testing.TB) *bulkFixture {
	t.Helper()
	fx := &bulkFixture{info: NewInformationService(core.NewInformation()), credits: core.NewCreditSystem()}
	if _, err := fx.info.info.Track("b", "e", 100, 0); err != nil {
		t.Fatal(err)
	}
	fx.info.addSample("b", core.Sample{T: 60, Completed: 10, Assigned: 100}) //nolint:errcheck
	if err := fx.credits.Deposit("u", 100); err != nil {
		t.Fatal(err)
	}
	if err := fx.credits.OrderQoS("u", "b", 50); err != nil {
		t.Fatal(err)
	}
	// The Oracle reads Information over HTTP; a closed address makes every
	// status fetch fail, which a bulk request must report per item.
	fx.modules = map[string]http.Handler{
		"information": fx.info,
		"credit":      NewCreditService(fx.credits),
		"oracle":      NewOracleService(core.NewOracle(core.DefaultStrategy()), NewInformationClient("http://127.0.0.1:1")),
	}
	return fx
}

func (fx *bulkFixture) digest(t testing.TB) string {
	t.Helper()
	st, err := fx.info.status("b")
	if err != nil {
		t.Fatal(err)
	}
	o, _ := fx.credits.OrderOf("b")
	buf, err := json.Marshal([]any{st, o, fx.credits.AccountOf("u"), fx.info.info.Count()})
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// bulkRoutes names every bulk route with a well-formed single item for "b"
// and the same item for another batch, so a duplicate can be built.
var bulkRoutes = []struct {
	module, path string
	item         func(id string) string
}{
	{"information", "/samples", func(id string) string {
		return fmt.Sprintf(`{"batch_id":%q,"sample":{"t":120,"completed":20,"assigned":100,"queued":0,"running":80}}`, id)
	}},
	{"information", "/statuses", func(id string) string { return fmt.Sprintf("%q", id) }},
	{"credit", "/bills", func(id string) string { return fmt.Sprintf(`{"batch_id":%q,"credits":[1,2]}`, id) }},
	{"credit", "/orders/lookup", func(id string) string { return fmt.Sprintf("%q", id) }},
	{"oracle", "/plans", func(id string) string { return fmt.Sprintf(`{"batch_id":%q,"credit_cpu_hours":2}`, id) }},
}

// TestBulkNegativePaths: a bulk request that is malformed, carries unknown
// fields, is empty, names a batch twice or exceeds the body cap is refused
// with a 4xx JSON error — and, although it may carry perfectly valid items
// ahead of the bad one, nothing of it is applied.
func TestBulkNegativePaths(t *testing.T) {
	for _, rt := range bulkRoutes {
		good := rt.item("b")
		bodies := map[string]string{
			"malformed":      `{"items":[` + good,
			"not an object":  `[` + good + `]`,
			"unknown field":  `{"items":[` + good + `],"extra":1}`,
			"empty list":     `{"items":[]}`,
			"no list":        `{}`,
			"duplicate ids":  `{"items":[` + good + `,` + rt.item("other") + `,` + good + `]}`,
			"empty batch id": `{"items":[` + good + `,` + rt.item("") + `]}`,
			"over 1 MiB":     `{"items":[` + good + `,` + rt.item(strings.Repeat("x", maxBodyBytes)) + `]}`,
		}
		if strings.HasPrefix(good, "{") {
			bodies["unknown item field"] = `{"items":[` + good + `,` + strings.Replace(rt.item("other"), "{", `{"nope":1,`, 1) + `]}`
		}
		for name, body := range bodies {
			t.Run(rt.module+rt.path+" "+name, func(t *testing.T) {
				fx := newBulkFixture(t)
				before := fx.digest(t)
				rec := httptest.NewRecorder()
				fx.modules[rt.module].ServeHTTP(rec, httptest.NewRequest(http.MethodPost, rt.path, strings.NewReader(body)))
				if rec.Code < 400 || rec.Code >= 500 {
					t.Fatalf("status %d, want a 4xx", rec.Code)
				}
				var e apiError
				if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
					t.Fatalf("error payload %q: %v", rec.Body.Bytes(), err)
				}
				if after := fx.digest(t); after != before {
					t.Fatalf("a refused request mutated state:\n before %s\n after  %s", before, after)
				}
			})
		}
	}
}

// TestBulkItemsFailAlone: a well-formed request is answered 200 with one
// result per item in request order, and an item that fails (an untracked
// batch, a batch without an order) leaves its neighbours' results intact.
func TestBulkItemsFailAlone(t *testing.T) {
	fx := newBulkFixture(t)
	post := func(module, path, body string, out any) {
		t.Helper()
		rec := httptest.NewRecorder()
		fx.modules[module].ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body.Bytes())
		}
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatal(err)
		}
	}
	item := func(i int, id string) string { return bulkRoutes[i].item(id) }

	var samples BulkReply[ItemResult]
	post("information", "/samples", `{"items":[`+item(0, "ghost")+`,`+item(0, "b")+`]}`, &samples)
	if r := samples.Results; len(r) != 2 || r[0].BatchID != "ghost" || r[0].Error != `batch "ghost" not tracked` || r[1] != (ItemResult{BatchID: "b"}) {
		t.Fatalf("samples: %+v", r)
	}
	var statuses BulkReply[StatusResult]
	post("information", "/statuses", `{"items":["ghost","b"]}`, &statuses)
	if r := statuses.Results; len(r) != 2 || r[0].Status != nil || r[0].Error == "" || r[1].Error != "" || r[1].Status.Samples != 2 {
		t.Fatalf("statuses: %+v", r)
	}

	// Bills are applied one by one until the order (50 credits) runs dry:
	// of 30, 30, 5 the second exhausts it and the third is never applied.
	var bills BulkReply[BillResult]
	post("credit", "/bills", `{"items":[{"batch_id":"ghost","credits":[1]},{"batch_id":"b","credits":[30,30,5]}]}`, &bills)
	if r := bills.Results; len(r) != 2 || r[0].Applied != 0 || r[0].Error == "" ||
		r[1] != (BillResult{BatchID: "b", Applied: 2, Exhausted: true}) {
		t.Fatalf("bills: %+v", r)
	}
	if o, _ := fx.credits.OrderOf("b"); o.Billed != 50 {
		t.Fatalf("order after bills: %+v", o)
	}
	var lookups BulkReply[OrderLookup]
	post("credit", "/orders/lookup", `{"items":["ghost","b"]}`, &lookups)
	if r := lookups.Results; len(r) != 2 || r[0].Found || r[0].HasCredits || !r[1].Found || r[1].HasCredits || r[1].Order.Billed != 50 {
		t.Fatalf("lookups: %+v", r)
	}

	// The fixture's Oracle cannot reach Information: every plan item reports
	// it, and the request still answers 200.
	var plans BulkReply[PlanResult]
	post("oracle", "/plans", `{"items":[`+item(4, "ghost")+`,`+item(4, "b")+`]}`, &plans)
	if r := plans.Results; len(r) != 2 || r[0].Error == "" || r[1].Error == "" || r[1].BatchID != "b" {
		t.Fatalf("plans: %+v", r)
	}
}

// FuzzBulkBodies fuzzes every bulk route: whatever the body, the handler must
// not panic, must answer JSON with 200 or a 4xx, and a 4xx must have mutated
// nothing.
func FuzzBulkBodies(f *testing.F) {
	for i, rt := range bulkRoutes {
		good := rt.item("b")
		f.Add(uint8(i), []byte(`{"items":[`+good+`]}`))
		f.Add(uint8(i), []byte(`{"items":[`+good+`,`+good+`]}`))
		f.Add(uint8(i), []byte(`{"items":[`+good+`],"extra":true}`))
		f.Add(uint8(i), []byte(`{"items":[]}`))
		f.Add(uint8(i), []byte(`{"items":null}`))
		f.Add(uint8(i), []byte(`{"items":[null]}`))
		f.Add(uint8(i), []byte(`{bogus`))
		f.Add(uint8(i), []byte(``))
	}
	f.Add(uint8(2), []byte(`{"items":[{"batch_id":"b","credits":[-1,1e308,1e309]}]}`))
	f.Add(uint8(2), []byte(`{"items":[{"batch_id":"b","credits":null}]}`))
	f.Add(uint8(0), []byte(`{"items":[{"batch_id":"b","sample":{"t":-1e300,"completed":-5}}]}`))
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		rt := bulkRoutes[int(route)%len(bulkRoutes)]
		fx := newBulkFixture(t)
		before := fx.digest(t)
		rec := httptest.NewRecorder()
		fx.modules[rt.module].ServeHTTP(rec, httptest.NewRequest(http.MethodPost, rt.path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK && (rec.Code < 400 || rec.Code >= 500) {
			t.Fatalf("%s answered %d for %q", rt.path, rec.Code, body)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("non-JSON response %q for %q", rec.Body.Bytes(), body)
		}
		if rec.Code != http.StatusOK && fx.digest(t) != before {
			t.Fatalf("%s refused %q with %d but mutated state", rt.path, body, rec.Code)
		}
	})
}

// TestBulkCallChunks: a list longer than bulkChunk goes out as several
// requests, a failed chunk is reported in the results of exactly its own
// items, and a heavy item is never split.
func TestBulkCallChunks(t *testing.T) {
	var sizes []int
	srv := httptest.NewServer(Endpoint(http.StatusOK, func(_ *http.Request, req BulkRequest[string]) (reply BulkReply[ItemResult], err error) {
		sizes = append(sizes, len(req.Items))
		if len(sizes) == 2 {
			return reply, fmt.Errorf("second chunk lost") // no Fail: a 500
		}
		reply.Results = make([]ItemResult, len(req.Items))
		for i, id := range req.Items {
			reply.Results[i].BatchID = id
		}
		return reply, nil
	}))
	defer srv.Close()
	ids := make([]string, 2*bulkChunk+7)
	for i := range ids {
		ids[i] = fmt.Sprintf("b%05d", i)
	}
	fail := func(id, msg string) ItemResult { return ItemResult{BatchID: id, Error: msg} }
	c := &Client{BaseURL: srv.URL, HTTP: srv.Client()}
	res := bulkCall(c, nil, ids, oneEach, fail)
	if fmt.Sprint(sizes) != fmt.Sprint([]int{bulkChunk, bulkChunk, 7}) {
		t.Fatalf("chunk sizes %v", sizes)
	}
	for i, r := range res {
		failed := i >= bulkChunk && i < 2*bulkChunk
		if r.BatchID != ids[i] || (r.Error != "") != failed {
			t.Fatalf("result %d: %+v (failed chunk: %v)", i, r, failed)
		}
	}
	if got := itemErr(res[bulkChunk].Error).Error(); got != "service: second chunk lost" {
		t.Fatalf("chunk error %q", got)
	}

	sizes = nil
	heavy := func(id string) int { return bulkChunk - 1 }
	bulkCall(c, nil, ids[:3], heavy, fail)
	if fmt.Sprint(sizes) != "[1 1 1]" {
		t.Fatalf("chunk sizes by weight %v", sizes)
	}
}

// TestClientsReuseConnections pins connection reuse for every client method,
// reply-less ones and failing ones included: a hundred sequential calls open
// at most one TCP connection to the module. (Closing a response body that was
// not read to its end makes net/http drop the connection; decodeReply used to
// do that for every call that ignores the reply.)
func TestClientsReuseConnections(t *testing.T) {
	counted := func(h http.Handler) (*httptest.Server, *atomic.Int64) {
		var opened atomic.Int64
		srv := httptest.NewUnstartedServer(h)
		srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				opened.Add(1)
			}
		}
		srv.Start()
		t.Cleanup(srv.Close)
		return srv, &opened
	}
	// Each client gets a transport of its own: connections pooled by other
	// tests' use of http.DefaultTransport must not hide a new dial.
	own := func() *http.Client { return &http.Client{Transport: &http.Transport{}} }

	infoSvc := NewInformationService(core.NewInformation())
	infoSrv, infoOpened := counted(infoSvc)
	creditSrv, creditOpened := counted(NewCreditService(core.NewCreditSystem()))
	oracleInfo := NewInformationClient(infoSrv.URL)
	oracleInfo.HTTP = own()
	oracleSrv, oracleOpened := counted(NewOracleService(core.NewOracle(core.DefaultStrategy()), oracleInfo))

	info := NewInformationClient(infoSrv.URL)
	credit := NewCreditClient(creditSrv.URL)
	oracle := NewOracleClient(oracleSrv.URL)
	info.HTTP, credit.HTTP, oracle.HTTP = own(), own(), own()

	schedSrv, schedOpened := counted(NewSchedulerService(info, credit, oracle, cloud.DefaultRegistry(), &scriptedDG{size: 1}))
	sched := &SchedulerClient{Client{BaseURL: schedSrv.URL, HTTP: http.DefaultClient}}
	sched.HTTP = own()

	if err := info.Track(TrackRequest{BatchID: "b", EnvKey: "e", Size: 100}); err != nil {
		t.Fatal(err)
	}
	if r := info.AddSamples([]BatchSample{{BatchID: "b", Sample: core.Sample{T: 60, Completed: 60, Assigned: 100}}}); r[0].Error != "" {
		t.Fatal(r[0].Error)
	}
	if err := credit.Deposit("u", 1e6); err != nil {
		t.Fatal(err)
	}
	if err := credit.Order("u", "b", 1e5); err != nil {
		t.Fatal(err)
	}

	id := func(prefix string, i int) string { return fmt.Sprintf("%s%03d", prefix, i) }
	methods := []struct {
		name   string
		opened *atomic.Int64
		call   func(i int)
	}{
		{"info.Track", infoOpened, func(i int) { info.Track(TrackRequest{BatchID: id("t", i), Size: 1}) }},
		{"info.Track refused", infoOpened, func(i int) { info.Track(TrackRequest{BatchID: "b", Size: 1}) }},
		{"info.AddSamples", infoOpened, func(i int) { info.AddSamples([]BatchSample{{BatchID: "b"}, {BatchID: "ghost"}}) }},
		{"info.Status", infoOpened, func(i int) { info.Status("b") }},
		{"info.Status untracked", infoOpened, func(i int) { info.Status("ghost") }},
		{"info.Statuses", infoOpened, func(i int) { info.Statuses([]string{"b", "ghost"}) }},
		{"credit.Deposit", creditOpened, func(i int) { credit.Deposit("u", 1) }},
		{"credit.Deposit refused", creditOpened, func(i int) { credit.Deposit("u", -1) }},
		{"credit.Order", creditOpened, func(i int) { credit.Order("u", id("o", i), 1) }},
		{"credit.Order refused", creditOpened, func(i int) { credit.Order("u", "b", 1) }},
		{"credit.Bills", creditOpened, func(i int) { credit.Bills([]BillItem{{BatchID: "b", Credits: []float64{0.5}}}) }},
		{"credit.OrderOf", creditOpened, func(i int) { credit.OrderOf("b") }},
		{"credit.OrderOf no order", creditOpened, func(i int) { credit.OrderOf("ghost") }},
		{"credit.Orders", creditOpened, func(i int) { credit.Orders([]string{"b", "ghost"}) }},
		{"credit.Account", creditOpened, func(i int) { credit.Account("u") }},
		{"credit.Pay", creditOpened, func(i int) { credit.Pay(id("o", i)) }},
		{"credit.Pay no order", creditOpened, func(i int) { credit.Pay("ghost") }},
		{"oracle.Predict", oracleOpened, func(i int) { oracle.Predict("b") }},
		{"oracle.Predict untracked", oracleOpened, func(i int) { oracle.Predict("ghost") }},
		{"oracle.Plans", oracleOpened, func(i int) { oracle.Plans([]PlanRequest{{BatchID: "b"}, {BatchID: "ghost"}}) }},
		{"oracle.RecordCalibration", oracleOpened, func(i int) { oracle.RecordCalibration("e", 100, 120) }},
		{"oracle.Calibration", oracleOpened, func(i int) { oracle.Calibration("e") }},
		{"sched.RegisterQoS", schedOpened, func(i int) { sched.RegisterQoS(QoSRequest{BatchID: id("q", i), Size: 1}) }},
		{"sched.RegisterQoS refused", schedOpened, func(i int) { sched.RegisterQoS(QoSRequest{BatchID: "q000", Size: 1}) }},
		// The Oracle is itself a client of Information.
		{"oracle.Predict → info.Status", infoOpened, func(i int) { oracle.Predict("b") }},
		{"oracle.Plans → info.Statuses", infoOpened, func(i int) { oracle.Plans([]PlanRequest{{BatchID: "b"}}) }},
	}
	for _, m := range methods {
		before := m.opened.Load()
		for i := 0; i < 100; i++ {
			m.call(i)
		}
		if opened := m.opened.Load() - before; opened > 1 {
			t.Errorf("%s: %d new connections for 100 calls, want at most 1", m.name, opened)
		}
	}
}
