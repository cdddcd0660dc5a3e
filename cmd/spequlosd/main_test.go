package main

import (
	"bytes"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"spequlos/internal/core"
	"spequlos/internal/service"
)

// TestDaemonServesOnItsListener starts the daemon, gated, on a host other
// than 127.0.0.1 and on port 0: its modules must reach one another at the
// address the listener got, or every tick fails. A QoS batch registered
// through the gate is then stepped with 200.
func TestDaemonServesOnItsListener(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.2:0")
	if err != nil {
		t.Skipf("no second loopback address: %v", err)
	}
	keys := filepath.Join(t.TempDir(), "keys.json")
	if err := os.WriteFile(keys, []byte(`[{"key":"sk-alice","user":"alice","tier":"enterprise"}]`), 0o644); err != nil {
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
	for _, c := range []struct{ path, body string }{
		{"/credit/deposit", `{"user":"alice","credits":100}`},
		{"/scheduler/qos", `{"batch_id":"b1","env_key":"XWHEP/seti/SMALL","size":100,"credits":50,"provider":"ec2","image":"img"}`},
		{"/scheduler/step", ``},
	} {
		req, _ := http.NewRequest(http.MethodPost, base+c.path, strings.NewReader(c.body))
		req.Header.Set(service.APIKeyHeader, "sk-alice")
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

// TestStartRejectsNonPositiveDurations: a non-positive -period panics the
// monitor and snapshot tickers inside their goroutines, after the listener
// is up, and a non-positive -demo-duration divides the demo DG's progress
// by zero. start refuses both, naming the flag and its value.
func TestStartRejectsNonPositiveDurations(t *testing.T) {
	for _, c := range []struct {
		o    options
		flag string
	}{
		{options{period: 0, demoDur: time.Minute}, "-period 0s"},
		{options{period: -time.Second, demoDur: time.Minute}, "-period -1s"},
		{options{period: time.Hour, demoDur: 0}, "-demo-duration 0s"},
	} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		c.o.strategy, c.o.stateDir = "9C-C-R", t.TempDir()
		d, err := start(ln, c.o)
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

func TestLoadStateRoundTrip(t *testing.T) {
	dir := t.TempDir()
	// Build state, snapshot it manually via the core writers.
	info := core.NewInformation()
	bi, _ := info.Track("b", "env", 10, 0)
	bi.AddSample(60, 10, 10, 0, 0)
	credits := core.NewCreditSystem()
	credits.Deposit("u", 42)
	cal := core.NewCalibration()
	cal.Record("env", 100, 150)

	write := func(name string, fn func(*bytes.Buffer) error) {
		var buf bytes.Buffer
		if err := fn(&buf); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("information.json", func(b *bytes.Buffer) error { return info.WriteJSON(b) })
	write("credits.json", func(b *bytes.Buffer) error { return credits.WriteJSON(b) })
	write("calibration.json", func(b *bytes.Buffer) error { return cal.WriteJSON(b) })

	in2, cs2, cal2 := loadState(dir)
	if v, ok := in2.View("b"); !ok || !v.Done {
		t.Fatal("information not restored")
	}
	if cs2.AccountOf("u").Balance != 42 {
		t.Fatal("credits not restored")
	}
	if cal2.Count("env") != 1 {
		t.Fatal("calibration not restored")
	}
}

func TestLoadStateFreshWhenMissing(t *testing.T) {
	in, cs, cal := loadState(t.TempDir())
	if in == nil || cs == nil || cal == nil {
		t.Fatal("nil state")
	}
	in2, _, _ := loadState("")
	if in2 == nil {
		t.Fatal("nil state without dir")
	}
}

// TestSaveStateReportsFailedSnapshot pins the snapshot error path: a module
// whose target cannot be renamed onto (its name is a directory) is logged,
// leaves no temp file behind, and does not stop the other modules' snapshots.
func TestSaveStateReportsFailedSnapshot(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "credits.json"), 0o755); err != nil {
		t.Fatal(err)
	}
	var logged bytes.Buffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)

	credits := core.NewCreditSystem()
	credits.Deposit("u", 42)
	saveState(dir, core.NewInformation(), credits, core.NewCalibration())

	if !strings.Contains(logged.String(), "snapshot credits.json:") {
		t.Fatalf("failed snapshot not reported, log: %q", logged.String())
	}
	if strings.Contains(logged.String(), "information.json") || strings.Contains(logged.String(), "calibration.json") {
		t.Fatalf("healthy snapshots reported as failed, log: %q", logged.String())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if got := strings.Join(names, " "); got != "calibration.json credits.json information.json" {
		t.Fatalf("state dir holds %q, want the three snapshot names and no temp file", got)
	}
	if fi, err := os.Stat(filepath.Join(dir, "credits.json")); err != nil || !fi.IsDir() {
		t.Fatalf("rename target was replaced: %v %v", fi, err)
	}
}
