package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"spequlos/internal/core"
	"spequlos/internal/service"
)

// validOptions are flags start accepts, with the state in dir.
func validOptions(dir string) options {
	return options{strategy: "9C-C-R", period: time.Hour, demoDur: time.Minute, stateDir: dir, rate: 100}
}

// startOn starts the daemon on a loopback port.
func startOn(t *testing.T, o options) *daemon {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d, err := start(ln, o)
	if err != nil {
		ln.Close()
		t.Fatal(err)
	}
	return d
}

// call sends one request to the daemon and decodes a 2xx reply into out.
func call(t *testing.T, d *daemon, method, path, body string, out any) {
	t.Helper()
	req, _ := http.NewRequest(method, d.URL+path, strings.NewReader(body))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode >= 300 {
		t.Fatalf("%s %s: %d %s", method, path, resp.StatusCode, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
	}
}

// readImage restores the state image in dir.
func readImage(t *testing.T, dir string) core.State {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, "state.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, err := core.ReadState(f)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// logTail captures the standard logger for the rest of the test and reports
// each line written to it.
type logTail struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	wrote chan struct{}
}

func captureLog(t *testing.T) *logTail {
	l := &logTail{wrote: make(chan struct{}, 1)}
	log.SetOutput(l)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	return l
}

func (l *logTail) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	select {
	case l.wrote <- struct{}{}:
	default:
	}
	return l.buf.Write(p)
}

func (l *logTail) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// await waits until the log holds n lines containing each of the parts.
func (l *logTail) await(t *testing.T, n int, parts ...string) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		got := 0
		for _, line := range strings.Split(l.String(), "\n") {
			all := true
			for _, p := range parts {
				all = all && strings.Contains(line, p)
			}
			if all {
				got++
			}
		}
		if got >= n {
			return
		}
		select {
		case <-l.wrote:
		case <-deadline:
			t.Fatalf("%d of %d log lines containing %q; log: %q", got, n, parts, l.String())
		}
	}
}

// TestDaemonServesOnItsListener starts the daemon, gated, on a host other
// than 127.0.0.1 and on port 0: its modules must reach one another at the
// address the listener got, or every tick fails. A QoS batch registered
// through the gate with a tenant's key, on credits the operator's key
// deposited, is then stepped with 200 by the operator.
func TestDaemonServesOnItsListener(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.2:0")
	if err != nil {
		t.Skipf("no second loopback address: %v", err)
	}
	keys := filepath.Join(t.TempDir(), "keys.json")
	if err := os.WriteFile(keys, []byte(`[{"key":"sk-alice","user":"alice","tier":"enterprise"},
		{"key":"sk-op","user":"operator","tier":"enterprise","unlimited":true}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := start(ln, options{strategy: "9C-C-R", period: time.Hour, demoDur: time.Minute, keysFile: keys, rate: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if !strings.HasPrefix(d.URL, "http://127.0.0.2:") {
		t.Fatalf("stack addresses %s, want the listener's host", d.URL)
	}
	base := "http://" + ln.Addr().String()
	for _, c := range []struct{ key, path, body string }{
		{"sk-op", "/credit/deposit", `{"user":"alice","credits":100}`},
		{"sk-alice", "/scheduler/qos", `{"batch_id":"b1","env_key":"XWHEP/seti/SMALL","size":100,"credits":50,"provider":"ec2","image":"img"}`},
		{"sk-op", "/scheduler/step", ``},
	} {
		req, _ := http.NewRequest(http.MethodPost, base+c.path, strings.NewReader(c.body))
		req.Header.Set(service.APIKeyHeader, c.key)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode >= 300 {
			t.Fatalf("POST %s: %d %s", c.path, resp.StatusCode, body)
		}
	}
}

// TestStartRejectsBadFlags: start refuses a flag value that would panic or
// silently do nothing, naming the flag and its value. A non-positive -period
// panics the loop's ticker inside its goroutine, after the listener is up; a
// non-positive -demo-duration divides the demo DG's progress by zero; a
// non-positive -rate lifts every tier's rate limit; -fleet-cap is only read
// with -tiers, and a negative one would mean unlimited.
func TestStartRejectsBadFlags(t *testing.T) {
	keys := filepath.Join(t.TempDir(), "keys.json")
	if err := os.WriteFile(keys, []byte(`[{"key":"sk-a","user":"alice","tier":"free"}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		edit func(*options)
		flag string
	}{
		{func(o *options) { o.period = 0 }, "-period 0s"},
		{func(o *options) { o.period = -time.Second }, "-period -1s"},
		{func(o *options) { o.demoDur = 0 }, "-demo-duration 0s"},
		{func(o *options) { o.keysFile, o.rate = keys, 0 }, "-rate 0"},
		{func(o *options) { o.keysFile, o.rate = keys, -5 }, "-rate -5"},
		{func(o *options) { o.fleetCap = 3 }, "-fleet-cap 3"},
		{func(o *options) { o.tiered, o.fleetCap = true, -1 }, "-fleet-cap -1"},
	} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		o := validOptions(t.TempDir())
		c.edit(&o)
		d, err := start(ln, o)
		if err == nil {
			d.Close()
			t.Fatalf("%s: start succeeded", c.flag)
		}
		ln.Close()
		if !strings.Contains(err.Error(), c.flag) {
			t.Errorf("%s: error %q does not name the flag and its value", c.flag, err)
		}
	}
}

// TestLoadKeysRejectsDuplicateOrEmpty: a key listed twice would run every
// request as its last entry's user and tier, and an empty key can never be
// presented. loadKeys refuses both, naming the users involved.
func TestLoadKeysRejectsDuplicateOrEmpty(t *testing.T) {
	for _, c := range []struct{ keys, want string }{
		{`[{"key":"sk-x","user":"alice","tier":"enterprise"},{"key":"sk-x","user":"bob","tier":"free"}]`, `"alice" and "bob" have the same key`},
		{`[{"key":"sk-a","user":"alice"},{"key":"","user":"carol"}]`, `the key of "carol" is empty`},
	} {
		path := filepath.Join(t.TempDir(), "keys.json")
		if err := os.WriteFile(path, []byte(c.keys), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := loadKeys(path); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("loadKeys(%s) = %v, want an error containing %q", c.keys, err, c.want)
		}
	}
}

// TestCloseWritesFinalImage: a deposit acknowledged just before a stop is in
// the image Close writes, however long the period.
func TestCloseWritesFinalImage(t *testing.T) {
	dir := t.TempDir()
	d := startOn(t, validOptions(dir))
	call(t, d, http.MethodPost, "/credit/deposit", `{"user":"alice","credits":42}`, nil)
	d.Close()
	if got := readImage(t, dir).Credits.AccountOf("alice").Balance; got != 42 {
		t.Fatalf("restored balance %v, want the 42 deposited", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "state.json" {
		t.Fatalf("state dir holds %v, want state.json alone", entries)
	}
}

// TestLoadStateRoundTrip: the image written to a state dir is what restore
// hands the next daemon, every module included.
func TestLoadStateRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := core.NewState()
	bi, _ := s.Information.Track("b", "env", 10, 0)
	bi.AddSample(60, 10, 10, 0, 0)
	s.Credits.Deposit("u", 42)
	s.Calibration.Record("env", 100, 150)
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "state.json"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	got, path, err := restore(dir)
	if err != nil || path != filepath.Join(dir, "state.json") {
		t.Fatalf("restore: path %q, error %v", path, err)
	}
	if v, ok := got.Information.View("b"); !ok || !v.Done {
		t.Fatal("information not restored")
	}
	if got.Credits.AccountOf("u").Balance != 42 {
		t.Fatal("credits not restored")
	}
	if got.Calibration.Fit("env").Count != 1 {
		t.Fatal("calibration not restored")
	}
}

// TestLoadStateFreshWhenMissing: without a state dir, or with one that holds
// no image, restore starts every module empty and writes nothing.
func TestLoadStateFreshWhenMissing(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "new")
	for _, d := range []string{dir, ""} {
		s, _, err := restore(d)
		if err != nil {
			t.Fatalf("restore(%q): %v", d, err)
		}
		if s.Information == nil || s.Credits == nil || s.Calibration == nil {
			t.Fatalf("restore(%q): nil module in %+v", d, s)
		}
		if s.Credits.AccountOf("u").Balance != 0 {
			t.Fatalf("restore(%q): fresh state holds credits", d)
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("state dir holds %v (%v), want it created and empty", entries, err)
	}
}

// TestRestartRestoresState: a second daemon on the first one's state dir
// serves, over its own socket, the balances, orders, archive and calibration
// the first one held when it stopped.
func TestRestartRestoresState(t *testing.T) {
	dir := t.TempDir()
	const env = "XWHEP/seti/SMALL"
	d := startOn(t, validOptions(dir))
	call(t, d, http.MethodPost, "/credit/deposit", `{"user":"alice","credits":100}`, nil)
	call(t, d, http.MethodPost, "/scheduler/qos",
		`{"user":"alice","batch_id":"b1","env_key":"`+env+`","size":100,"credits":40,"provider":"ec2","image":"img"}`, nil)
	// b0 is half done at 50 s and done at 120 s: the Oracle archives it.
	call(t, d, http.MethodPost, "/information/batches", `{"batch_id":"b0","env_key":"`+env+`","size":10}`, nil)
	call(t, d, http.MethodPost, "/information/samples", `{"items":[{"batch_id":"b0","sample":{"t":50,"completed":5,"assigned":10}}]}`, nil)
	call(t, d, http.MethodPost, "/information/samples", `{"items":[{"batch_id":"b0","sample":{"t":120,"completed":10,"assigned":10}}]}`, nil)
	call(t, d, http.MethodPost, "/oracle/calibrations", `{"items":[{"batch_id":"b0","env_key":"`+env+`"}]}`, nil)
	d.Close()

	d = startOn(t, validOptions(dir))
	defer d.Close()
	var acct core.Account
	call(t, d, http.MethodGet, "/credit/accounts/alice", "", &acct)
	var order core.Order
	call(t, d, http.MethodGet, "/credit/orders/b1", "", &order)
	var cal service.CalibrationStatus
	call(t, d, http.MethodGet, "/oracle/calibration/"+env, "", &cal)
	var batch service.BatchStatus
	call(t, d, http.MethodGet, "/information/batches/b1", "", &batch)
	if acct.Balance != 60 || order.Allocated != 40 || order.Closed || cal.Count != 1 || batch.BatchID != "b1" || batch.Size != 100 {
		t.Fatalf("after restart: account %+v, order %+v, calibration %+v, batch %+v", acct, order, cal, batch)
	}
}

// TestStartRefusesUnreadableState: an image that cannot be restored, or the
// per-module files of the old layout without one, fail start with the file
// named, and nothing in the state dir is overwritten.
func TestStartRefusesUnreadableState(t *testing.T) {
	for _, c := range []struct{ name, file, body, want string }{
		{"truncated", "state.json", `{"information":{"batches":null},"credits":{"acc`, "state.json"},
		{"unparsable section", "state.json", `{"information":{"batches":null},"credits":[],"calibration":{}}`, "state.json"},
		{"old layout", "credits.json", `{"accounts":[{"user":"alice","balance":100}],"orders":null}`, "credits.json"},
	} {
		dir := t.TempDir()
		path := filepath.Join(dir, c.file)
		if err := os.WriteFile(path, []byte(c.body), 0o644); err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		d, err := start(ln, validOptions(dir))
		if err == nil {
			d.Close()
			t.Fatalf("%s: start succeeded", c.name)
		}
		ln.Close()
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not name %s", c.name, err, c.want)
		}
		entries, _ := os.ReadDir(dir)
		if body, _ := os.ReadFile(path); len(entries) != 1 || string(body) != c.body {
			t.Errorf("%s: state dir now holds %v, %s reads %q", c.name, entries, c.file, body)
		}
	}
}

// TestFailedStateWriteIsLogged: an image that cannot be renamed into place
// (state.json is a directory) is logged, leaves no temp file behind, and does
// not stop the loop.
func TestFailedStateWriteIsLogged(t *testing.T) {
	dir := t.TempDir()
	logged := captureLog(t)
	o := validOptions(dir)
	o.period = 5 * time.Millisecond
	d := startOn(t, o)
	path := filepath.Join(dir, "state.json")
	for os.Mkdir(path, 0o755) != nil { // a tick may have written the file first
		os.Remove(path)
	}
	logged.await(t, 2, "spequlosd: state: ", "state.json")
	d.Close()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || !entries[0].IsDir() {
		t.Fatalf("state dir holds %v, want the state.json directory alone", entries)
	}
}

// TestRunLogsTickErrors pins the loop's handling of a failed tick: it is
// logged, and the loop keeps ticking until stopped. The batch's plan starts
// on the first tick (9A: the demo DG assigns every task at once) and every
// launch fails, the daemon's registry having no "mock" provider.
func TestRunLogsTickErrors(t *testing.T) {
	logged := captureLog(t)
	o := validOptions("")
	o.strategy, o.period = "9A-C-R", 2*time.Millisecond
	d := startOn(t, o)
	defer d.Close()
	call(t, d, http.MethodPost, "/credit/deposit", `{"user":"bob","credits":10}`, nil)
	call(t, d, http.MethodPost, "/scheduler/qos",
		`{"user":"bob","batch_id":"b","env_key":"e","size":100,"credits":10,"provider":"mock","image":"img"}`, nil)
	logged.await(t, 2, "scheduler: tick: ", `unknown provider "mock"`)
}
