package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
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
	oracle  *core.Oracle
	modules map[string]http.Handler
}

func newBulkFixture(t testing.TB) *bulkFixture {
	t.Helper()
	fx := &bulkFixture{info: NewInformationService(core.NewInformation()), credits: core.NewCreditSystem(),
		oracle: core.NewOracle(core.DefaultStrategy())}
	if _, err := fx.info.info.Track("b", "e", 100, 0); err != nil {
		t.Fatal(err)
	}
	fx.info.info.AddSample("b", core.Sample{T: 60, Completed: 10, Assigned: 100})
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
		"oracle":      NewOracleService(fx.oracle, NewInformationClient("http://127.0.0.1:1")),
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
	buf, err := json.Marshal([]any{st, o, fx.credits.AccountOf("u"), fx.info.info.Count(), fx.oracle.Calibration.Fit("e").Count})
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
	{"credit", "/orders/pay", func(id string) string { return fmt.Sprintf("%q", id) }},
	{"oracle", "/calibrations", func(id string) string {
		return fmt.Sprintf(`{"batch_id":%q,"env_key":"e"}`, id)
	}},
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
// Results name no batch: the failed result at index i names item i's batch in
// its error, and the result after it is its neighbour's.
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
	if r := samples.Results; len(r) != 2 || r[0].Error != `batch "ghost" not tracked` || r[1] != (ItemResult{}) {
		t.Fatalf("samples: %+v", r)
	}
	var statuses BulkReply[StatusResult]
	post("information", "/statuses", `{"items":["ghost","b"]}`, &statuses)
	if r := statuses.Results; len(r) != 2 || r[0].Status != nil || r[0].Error != `batch "ghost" not tracked` || r[1].Error != "" || r[1].Status.T != 120 || r[1].Status.Completed != 20 {
		t.Fatalf("statuses: %+v", r)
	}

	// Bills are applied one by one until the order (50 credits) runs dry:
	// of 30, 30, 5 the second exhausts it and the third is never applied.
	var bills BulkReply[BillResult]
	post("credit", "/bills", `{"items":[{"batch_id":"ghost","credits":[1]},{"batch_id":"b","credits":[30,30,5]}]}`, &bills)
	if r := bills.Results; len(r) != 2 || r[0].Applied != 0 || !strings.Contains(r[0].Error, `"ghost"`) ||
		r[1] != (BillResult{Applied: 2, Exhausted: true}) {
		t.Fatalf("bills: %+v", r)
	}
	if o, _ := fx.credits.OrderOf("b"); o.Billed != 50 {
		t.Fatalf("order after bills: %+v", o)
	}
	var lookups BulkReply[OrderLookup]
	post("credit", "/orders/lookup", `{"items":["ghost","b"]}`, &lookups)
	if r := lookups.Results; len(r) != 2 || r[0] != (OrderLookup{}) || r[1] != (OrderLookup{}) {
		t.Fatalf("lookups: %+v", r)
	}

	// The fixture's Oracle cannot reach Information: every plan item reports
	// it, and the request still answers 200.
	var plans BulkReply[PlanResult]
	post("oracle", "/plans", `{"items":[`+item(4, "ghost")+`,`+item(4, "b")+`]}`, &plans)
	if r := plans.Results; len(r) != 2 || r[0].Error == "" || r[1].Error == "" {
		t.Fatalf("plans: %+v", r)
	}
	// One that can passes Information's refusal of the untracked batch on at
	// its index, and plans b at the next: only 20% of b's tasks are complete,
	// so 9C-C-R starts nothing and waits for 90%.
	infoSrv := httptest.NewServer(fx.info)
	defer infoSrv.Close()
	fx.modules["oracle"] = NewOracleService(fx.oracle, NewInformationClient(infoSrv.URL))
	var reached BulkReply[PlanResult]
	post("oracle", "/plans", `{"items":[`+item(4, "ghost")+`,`+item(4, "b")+`]}`, &reached)
	if r := reached.Results; len(r) != 2 || r[0].Error != `service: batch "ghost" not tracked` ||
		r[1] != (PlanResult{Plan: core.Plan{Wait: core.Wait{Completed: 90}}}) {
		t.Fatalf("plans with Information reachable: %+v", r)
	}

	// Paying closes b's order and refunds what the bills left of it (none);
	// paying it again is not an error and refunds nothing.
	var pays BulkReply[PayResult]
	post("credit", "/orders/pay", `{"items":["ghost","b"]}`, &pays)
	if r := pays.Results; len(r) != 2 || !strings.Contains(r[0].Error, `"ghost"`) || r[1] != (PayResult{}) {
		t.Fatalf("pays: %+v", r)
	}
	if o, _ := fx.credits.OrderOf("b"); !o.Closed {
		t.Fatalf("order after pays: %+v", o)
	}
	var again BulkReply[PayResult]
	post("credit", "/orders/pay", `{"items":["b"]}`, &again)
	if r := again.Results; len(r) != 1 || r[0] != (PayResult{}) {
		t.Fatalf("pays of a closed order: %+v", r)
	}

	// The Oracle archives what Information says of each batch: b is still
	// running, so it archives nothing and succeeds; the untracked batch fails
	// at its own index with Information's reason; the finished one, half done
	// at 60 s and done at 100 s, archives base 120 and actual 100.
	if _, err := fx.info.info.Track("done", "e", 10, 0); err != nil {
		t.Fatal(err)
	}
	fx.info.info.AddSample("done", core.Sample{T: 60, Completed: 5, Assigned: 10})
	fx.info.info.AddSample("done", core.Sample{T: 100, Completed: 10, Assigned: 10})
	var cals BulkReply[ItemResult]
	post("oracle", "/calibrations", `{"items":[`+item(6, "b")+`,`+item(6, "other")+`,`+item(6, "done")+`]}`, &cals)
	if r := cals.Results; len(r) != 3 || r[0] != (ItemResult{}) || r[1].Error != `service: batch "other" not tracked` || r[2] != (ItemResult{}) {
		t.Fatalf("calibrations: %+v", r)
	}
	if fit := fx.oracle.Calibration.Fit("e"); fit.Count != 1 || fit.Alpha != 100.0/120 {
		t.Fatalf("archive %+v, want the finished batch's execution alone", fit)
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
// items, and a heavy item is never split. The server answers each item with
// an error naming it, so a result out of place shows.
func TestBulkCallChunks(t *testing.T) {
	var sizes []int
	srv := httptest.NewServer(Endpoint(http.StatusOK, func(_ *http.Request, req BulkRequest[string]) (reply BulkReply[ItemResult], err error) {
		sizes = append(sizes, len(req.Items))
		if len(sizes) == 2 {
			return reply, fmt.Errorf("second chunk lost") // no Fail: a 500
		}
		reply.Results = make([]ItemResult, len(req.Items))
		for i, id := range req.Items {
			reply.Results[i].Error = "item " + id
		}
		return reply, nil
	}))
	defer srv.Close()
	ids := make([]string, 2*bulkChunk+7)
	for i := range ids {
		ids[i] = fmt.Sprintf("b%05d", i)
	}
	fail := func(msg string) ItemResult { return ItemResult{Error: msg} }
	c := &Client{BaseURL: srv.URL, HTTP: srv.Client()}
	res := bulkCall(c, nil, ids, oneEach, fail)
	if fmt.Sprint(sizes) != fmt.Sprint([]int{bulkChunk, bulkChunk, 7}) {
		t.Fatalf("chunk sizes %v", sizes)
	}
	for i, r := range res {
		want := "item " + ids[i]
		if i >= bulkChunk && i < 2*bulkChunk {
			want = "second chunk lost"
		}
		if r.Error != want {
			t.Fatalf("result %d: %+v, want error %q", i, r, want)
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
		{"oracle.Predict", oracleOpened, func(i int) { oracle.Predict("b") }},
		{"oracle.Predict untracked", oracleOpened, func(i int) { oracle.Predict("ghost") }},
		{"oracle.Plans", oracleOpened, func(i int) { oracle.Plans([]PlanRequest{{BatchID: "b"}, {BatchID: "ghost"}}) }},
		{"credit.Pays", creditOpened, func(i int) { credit.Pays([]string{id("o", i), "ghost"}) }},
		{"oracle.Calibrations", oracleOpened, func(i int) {
			oracle.Calibrations([]CalibrationItem{{BatchID: "b", EnvKey: "e"}})
		}},
		{"oracle.Calibration", oracleOpened, func(i int) { oracle.Calibration("e") }},
		{"sched.RegisterQoS", schedOpened, func(i int) { sched.RegisterQoS(QoSRequest{BatchID: id("q", i), Size: 1}) }},
		{"sched.RegisterQoS refused", schedOpened, func(i int) { sched.RegisterQoS(QoSRequest{BatchID: "q000", Size: 1}) }},
		// The Oracle is itself a client of Information.
		{"oracle.Predict → info.Status", infoOpened, func(i int) { oracle.Predict("b") }},
		{"oracle.Plans → info.Statuses", infoOpened, func(i int) { oracle.Plans([]PlanRequest{{BatchID: "b"}}) }},
		{"oracle.Calibrations → info.Statuses", infoOpened, func(i int) { oracle.Calibrations([]CalibrationItem{{BatchID: "b", EnvKey: "e"}}) }},
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

// TestClientReplyFraming: a bulk reply larger than net/http's 2 KB write
// buffer arrives with a Content-Length, not chunked, and the client decodes
// it; a 4xx reply still surfaces the API's error text; and a decoded value
// keeps its bytes after the pooled buffer it was read from serves the next
// reply.
func TestClientReplyFraming(t *testing.T) {
	info := NewInformationService(core.NewInformation())
	srv := httptest.NewServer(info)
	defer srv.Close()
	c := NewInformationClient(srv.URL)
	ids := make([]string, 40)
	for i := range ids {
		ids[i] = fmt.Sprintf("batch-%02d", i)
		if err := c.Track(TrackRequest{BatchID: ids[i], EnvKey: "e", Size: 100}); err != nil {
			t.Fatal(err)
		}
	}
	body, _ := json.Marshal(BulkRequest[string]{Items: ids})
	resp, err := http.Post(srv.URL+"/statuses", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) <= 2048 || resp.ContentLength != int64(len(raw)) || len(resp.TransferEncoding) != 0 {
		t.Fatalf("a %d-byte reply arrived with Content-Length %d and Transfer-Encoding %q",
			len(raw), resp.ContentLength, resp.TransferEncoding)
	}
	for i, st := range c.Statuses(ids) {
		if st.Error != "" || st.Status == nil || st.Status.Size != 100 {
			t.Fatalf("status %d: %+v", i, st)
		}
	}

	if err := c.Track(TrackRequest{BatchID: ids[0], EnvKey: "e", Size: 100}); err == nil ||
		!strings.Contains(err.Error(), `"batch-00"`) {
		t.Errorf("a refused track answered %v, want the API's error naming the batch", err)
	}
	if err := c.Post(BulkRequest[string]{}, nil, "statuses"); err == nil ||
		err.Error() != "service: service: bulk request has no items" {
		t.Errorf("an empty bulk request answered %v, want the API's error", err)
	}

	var first, second BulkReply[json.RawMessage]
	if err := c.Post(BulkRequest[string]{Items: ids[:1]}, &first, "statuses"); err != nil {
		t.Fatal(err)
	}
	kept := string(first.Results[0])
	if err := c.Post(BulkRequest[string]{Items: []string{"ghost"}}, &second, "statuses"); err != nil {
		t.Fatal(err)
	}
	if string(first.Results[0]) != kept {
		t.Fatalf("a decoded result changed when the next reply was read: %s, was %s", first.Results[0], kept)
	}
}
