package service_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"spequlos/internal/cloud"
	"spequlos/internal/core"
	"spequlos/internal/emul"
	"spequlos/internal/middleware"
	"spequlos/internal/service"
)

// echoDG is a DG gateway that remembers the last id it was asked about and
// names one idle instance per batch, "i " and the batch id.
type echoDG struct {
	mu   sync.Mutex
	last string
}

func (d *echoDG) saw(id string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.last = id
}

func (d *echoDG) ProgressBatch(ids []string) (map[string]middleware.Progress, error) {
	out := map[string]middleware.Progress{}
	for _, id := range ids {
		d.saw(id)
		out[id] = middleware.Progress{Size: 100, Arrived: 100, Completed: 60, EverAssigned: 100, Running: 40,
			IdleInstances: []string{"i " + id}}
	}
	return out, nil
}

func (d *echoDG) WorkerURL() string { return "http://dg.invalid/worker" }

// wireFixture is the four modules and a DG gateway over state the test can
// read back, each module reachable on a socket of its own or, when muxed,
// all four in one service.Stack.
type wireFixture struct {
	state core.State
	dg    *echoDG

	// handlers holds the five wire surfaces by name, mounted standalone.
	handlers map[string]http.Handler

	infoC   *service.InformationClient
	creditC *service.CreditClient
	oracleC *service.OracleClient
	schedC  *service.SchedulerClient
	dgC     *emul.DGClient
}

func newWireFixture(t *testing.T, muxed bool) *wireFixture {
	t.Helper()
	fx := &wireFixture{state: core.NewState(), dg: &echoDG{}}
	gw := emul.NewGatewayHandler(fx.dg)
	dgSrv := httptest.NewServer(gw)
	t.Cleanup(dgSrv.Close)
	fx.dgC = emul.NewDGClient(dgSrv.URL)
	if muxed {
		st, err := service.NewStack(service.StackConfig{
			Strategy: core.DefaultStrategy(), DG: fx.dgC, State: &fx.state,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(st.Close)
		fx.infoC, fx.creditC, fx.oracleC, fx.schedC = st.InfoClient, st.CreditClient, st.OracleClient, st.SchedulerClient
		return fx
	}

	// An unstarted server knows its address, which the modules' clients of
	// one another need before the modules exist.
	var srvs [4]*httptest.Server
	var urls [4]string
	for i := range srvs {
		srvs[i] = httptest.NewUnstartedServer(nil)
		t.Cleanup(srvs[i].Close)
		urls[i] = "http://" + srvs[i].Listener.Addr().String()
	}
	fx.infoC = service.NewInformationClient(urls[0])
	fx.creditC = service.NewCreditClient(urls[1])
	fx.oracleC = service.NewOracleClient(urls[2])
	fx.schedC = &service.SchedulerClient{Client: service.Client{BaseURL: urls[3], HTTP: http.DefaultClient}}

	oracle := core.NewOracle(core.DefaultStrategy())
	oracle.Calibration = fx.state.Calibration
	info := service.NewInformationService(fx.state.Information)
	credit := service.NewCreditService(fx.state.Credits)
	oracleSvc := service.NewOracleService(oracle, fx.infoC)
	sched := service.NewSchedulerService(fx.infoC, fx.creditC, fx.oracleC, cloud.DefaultRegistry(), fx.dgC)
	fx.handlers = map[string]http.Handler{
		"information": info, "credit": credit, "oracle": oracleSvc, "scheduler": sched, "dg": gw,
	}
	for i, h := range []http.Handler{info, credit, oracleSvc, sched} {
		srvs[i].Config.Handler = h
		srvs[i].Start()
	}
	return fx
}

// digest is everything a request could have mutated.
func (fx *wireFixture) digest(t *testing.T) string {
	t.Helper()
	var buf bytes.Buffer
	if err := fx.state.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestIdentifiersRoundTrip: an identifier travels as one escaped path segment
// whatever it contains, through every client method that puts one in a path,
// and intact in the body of every bulk call a batch's lifetime makes, with
// each module on its own socket and with all four in one service.Stack.
// (Spliced in unescaped, "a?b" was read back as batch "a", "a#b" and "a/b"
// found no route, and "100%" was not a URL.)
func TestIdentifiersRoundTrip(t *testing.T) {
	const env = "XWHEP/seti/SMALL"
	for _, muxed := range []bool{false, true} {
		fx := newWireFixture(t, muxed)
		ids := []string{"a b", "a?b", "a#b", "a/b", "a%2Fb", "100%"}
		for _, id := range ids {
			name := map[bool]string{false: "standalone ", true: "muxed "}[muxed] + id
			t.Run(name, func(t *testing.T) {
				check := func(what string, err error, got, want any) {
					t.Helper()
					if err != nil {
						t.Errorf("%s: %v", what, err)
					} else if got != want {
						t.Errorf("%s: answered for %q, want %q", what, got, want)
					}
				}
				user := "u " + id
				if err := fx.creditC.Deposit(user, 100); err != nil {
					t.Fatal(err)
				}
				if err := fx.schedC.RegisterQoS(service.QoSRequest{
					User: user, BatchID: id, EnvKey: env, Size: 100, Credits: 10, Provider: "ec2", Image: "img",
				}); err != nil {
					t.Fatal(err)
				}
				// Routes without a typed client method go through Client.
				var qos service.QoSStatus
				err := fx.schedC.Get(&qos, "qos", id)
				check("GET /qos/{id}", err, qos.BatchID, id)

				// A bulk result names no batch: what the item did is read back
				// from the state stored under the id.
				sample := fx.infoC.AddSamples([]service.BatchSample{{BatchID: id, Sample: core.Sample{T: 60, Completed: 60, Assigned: 100}}})[0]
				stored, _ := fx.state.Information.View(id)
				check("info.AddSamples", itemError(sample.Error), stored.LastSample.T, 60.0)
				st, err := fx.infoC.Status(id)
				check("info.Status", err, st.BatchID, id)
				if st.Samples != 1 {
					t.Errorf("info.Status: %d samples, want the one added", st.Samples)
				}

				acct, err := fx.creditC.Account(user)
				check("credit.Account", err, acct.User, user)
				bill := fx.creditC.Bills([]service.BillItem{{BatchID: id, Credits: []float64{1}}})[0]
				check("credit.Bills", itemError(bill.Error), bill.Applied, 1)
				order, err := fx.creditC.OrderOf(id)
				check("credit.OrderOf", err, order.BatchID, id)
				if order.Billed != 1 {
					t.Errorf("credit.OrderOf: billed %v, want the 1 billed", order.Billed)
				}
				lookup := fx.creditC.Orders([]string{id})[0]
				check("credit.Orders", itemError(lookup.Error), lookup.HasCredits, true)
				pay := fx.creditC.Pays([]string{id})[0]
				check("credit.Pays", itemError(pay.Error), pay.Refund, 9.0)
				closed, _ := fx.state.Credits.OrderOf(id)
				check("credit.Pays stored", nil, closed.Closed, true)

				pred, err := fx.oracleC.Predict(id)
				check("oracle.Predict", err, pred.CompletedFraction, 0.6)

				progress, err := fx.dgC.ProgressBatch([]string{id})
				check("dg.ProgressBatch", err, fx.dg.last, id)
				check("dg.ProgressBatch idle instances", err, strings.Join(progress[id].IdleInstances, ","), "i "+id)

				// Once the batch is done, the Oracle reads its tick view from
				// Information under the id and archives its execution.
				archived := fx.state.Calibration.Fit(env).Count
				fx.infoC.AddSamples([]service.BatchSample{{BatchID: id, Sample: core.Sample{T: 120, Completed: 100, Assigned: 100}}})
				cal := fx.oracleC.Calibrations([]service.CalibrationItem{{BatchID: id, EnvKey: env}})[0]
				check("oracle.Calibrations", itemError(cal.Error), fx.state.Calibration.Fit(env).Count, archived+1)
			})
		}
		cal, err := fx.oracleC.Calibration(env)
		if err != nil || cal.EnvKey != env || cal.Count != len(ids) {
			t.Errorf("oracle.Calibration(%q) (muxed %v): %+v, %v", env, muxed, cal, err)
		}
	}
}

// TestSnapshotDoesNotRaceSamples: the daemon's loop serializes the state
// image while POST /samples appends to the archive. Both go through
// core.Information's own lock; the race detector fails this test if a
// handler touches a history under any other.
func TestSnapshotDoesNotRaceSamples(t *testing.T) {
	state := core.NewState()
	srv := httptest.NewServer(service.NewInformationService(state.Information))
	defer srv.Close()
	c := service.NewInformationClient(srv.URL)
	if err := c.Track(service.TrackRequest{BatchID: "b", EnvKey: "e", Size: 1000}); err != nil {
		t.Fatal(err)
	}
	const n = 300
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			if err := state.WriteJSON(io.Discard); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		s := core.Sample{T: float64(i), Completed: i, Assigned: 1000}
		if res := c.AddSamples([]service.BatchSample{{BatchID: "b", Sample: s}}); res[0].Error != "" {
			t.Fatal(res[0].Error)
		}
	}
	<-done
	if st, err := c.Status("b"); err != nil || st.Samples != n {
		t.Fatalf("status after %d samples: %+v, %v", n, st, err)
	}
}

// itemError is a bulk result's error text as an error, nil if there is none.
func itemError(msg string) error {
	if msg == "" {
		return nil
	}
	return errors.New(msg)
}

// noBodyPosts are the POST routes that read nothing but their path.
var noBodyPosts = []string{"POST /step"}

// concretePath fills a pattern's wildcards in.
func concretePath(pattern string) (method, path string) {
	method, path, _ = strings.Cut(pattern, " ")
	segs := strings.Split(path, "/")
	for i, s := range segs {
		if strings.HasPrefix(s, "{") {
			segs[i] = "x"
		}
	}
	return method, strings.Join(segs, "/")
}

// routed reports whether a pattern of the table matches method and path,
// by the mux's rules: {name} is one segment, {name...} the rest, and a GET
// pattern also serves HEAD.
func routed(patterns []string, method, path string) bool {
	got := strings.Split(path, "/")
next:
	for _, p := range patterns {
		m, pp, _ := strings.Cut(p, " ")
		if m != method && !(m == http.MethodGet && method == http.MethodHead) {
			continue
		}
		want := strings.Split(pp, "/")
		if len(want) != len(got) && !(strings.HasSuffix(pp, "...}") && len(got) > len(want)) {
			continue
		}
		for i, s := range want {
			if !strings.HasPrefix(s, "{") && s != got[i] {
				continue next
			}
		}
		return true
	}
	return false
}

// TestWireContract walks the route table of every module and of the DG
// gateway, so a route added to a constructor is under contract without a row
// written for it here: a pattern answers its own method; every other method
// on its path, and every unclean spelling of the path, is a 404 with the JSON
// error body (never the mux's redirect page or plain-text 405); a route that
// takes a body refuses a malformed one, an unknown field and one over the cap
// with 400, having changed nothing.
func TestWireContract(t *testing.T) {
	fx := newWireFixture(t, false)
	do := func(h http.Handler, method, path, body string) (int, string) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		if method == http.MethodHead {
			return rec.Code, ""
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s: content type %q (status %d, body %q)", method, path, ct, rec.Code, rec.Body)
		}
		var e struct {
			Error string `json:"error"`
		}
		if rec.Code >= 400 {
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Errorf("%s %s: status %d without a JSON error body: %q", method, path, rec.Code, rec.Body)
			}
		}
		return rec.Code, e.Error
	}
	noRoute := func(h http.Handler, method, path string) {
		t.Helper()
		if code, msg := do(h, method, path, "{}"); code != http.StatusNotFound || (method != http.MethodHead && !strings.HasPrefix(msg, "no route")) {
			t.Errorf("%s %s: %d %q, want 404 no route", method, path, code, msg)
		}
	}
	total := 0
	for name, h := range fx.handlers {
		patterns := h.(interface{ Patterns() []string }).Patterns()
		total += len(patterns)
		for _, pattern := range patterns {
			method, path := concretePath(pattern)
			if code, msg := do(h, method, path, "{}"); strings.HasPrefix(msg, "no route") || code == http.StatusMovedPermanently || code == http.StatusMethodNotAllowed {
				t.Errorf("%s: %s does not answer %s %s: %d %q", name, pattern, method, path, code, msg)
			}
			for _, other := range []string{http.MethodGet, http.MethodHead, http.MethodPost, http.MethodPut, http.MethodPatch, http.MethodDelete} {
				if !routed(patterns, other, path) {
					noRoute(h, other, path)
				}
			}
			for _, unclean := range []string{path + "/", "/" + path, path + "//", "/." + path, path + "/.", "/x/.." + path, path + "/.."} {
				noRoute(h, method, unclean)
			}
			if method != http.MethodPost || slices.Contains(noBodyPosts, pattern) {
				continue
			}
			before := fx.digest(t)
			for what, body := range map[string]string{
				"malformed":     `{bogus`,
				"unknown field": `{"no_such_field":1}`,
				"over the cap":  strings.Repeat(" ", 1<<20) + "{}",
			} {
				if code, msg := do(h, method, path, body); code != http.StatusBadRequest {
					t.Errorf("%s: %s with a body %s: %d %q, want 400", name, pattern, what, code, msg)
				}
			}
			if after := fx.digest(t); after != before {
				t.Errorf("%s: a refused %s mutated state", name, pattern)
			}
		}
	}
	if total != 23 {
		t.Errorf("%d routes under contract, want the 21 of the modules and the 2 of the DG gateway", total)
	}

	// What the parent's hand-written routers answered differently, pinned.
	if err := fx.infoC.Track(service.TrackRequest{BatchID: "b1", EnvKey: "e", Size: 10}); err != nil {
		t.Fatal(err)
	}
	if code, _ := do(fx.handlers["information"], http.MethodGet, "/batches/b1", ""); code != http.StatusOK {
		t.Errorf("GET /batches/b1: %d", code)
	}
	noRoute(fx.handlers["information"], http.MethodGet, "/batches/b1/") // 200 while pathTail trimmed the slash
	noRoute(fx.handlers["oracle"], http.MethodGet, "/calibration")      // the {env...} wildcard's redirect
	if code, _ := do(fx.handlers["oracle"], http.MethodGet, "/calibration/XWHEP/seti/SMALL", ""); code != http.StatusOK {
		t.Errorf("GET /calibration/XWHEP/seti/SMALL (an unescaped env key): %d", code)
	}
	if code, _ := do(fx.handlers["credit"], http.MethodHead, "/accounts/u", ""); code != http.StatusOK {
		t.Errorf("HEAD /accounts/u: %d, want net/http's answer for a GET pattern", code)
	}
}
