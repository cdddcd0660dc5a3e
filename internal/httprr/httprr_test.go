package httprr

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// startServer serves a tiny JSON API whose responses depend on method, path
// and body — enough surface to prove matching is faithful.
func startServer(t *testing.T) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		body, _ := io.ReadAll(r.Body)
		w.Header().Set("Content-Type", "application/json")
		if r.URL.Path == "/missing" {
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprintf(w, `{"error":"no route"}`)
			return
		}
		fmt.Fprintf(w, `{"method":%q,"path":%q,"body":%q}`, r.Method, r.URL.Path, body)
	}))
	t.Cleanup(srv.Close)
	return srv, &hits
}

// driveClient issues the exchange sequence under test and returns every
// response body in order.
func driveClient(t *testing.T, base string, c *http.Client) []string {
	t.Helper()
	var out []string
	get := func(path string) {
		resp, err := c.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		out = append(out, fmt.Sprintf("%d %s", resp.StatusCode, b))
	}
	get("/a")
	resp, err := c.Post(base+"/orders", "application/json", strings.NewReader(`{"id":"b1"}`))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	out = append(out, fmt.Sprintf("%d %s", resp.StatusCode, b))
	get("/missing")
	get("/a") // repeated request must replay too
	return out
}

// TestRecordThenReplay records a session against a live server, then proves
// the committed trace reproduces it byte for byte with the server gone.
func TestRecordThenReplay(t *testing.T) {
	file := filepath.Join(t.TempDir(), "session.httprr")
	srv, hits := startServer(t)

	rr := &RecordReplay{file: file, real: http.DefaultTransport, recording: true}
	rr.scrubs = append(rr.scrubs, scrubHost)
	recorded := driveClient(t, srv.URL, rr.Client())
	if err := rr.Close(); err != nil {
		t.Fatal(err)
	}
	if hits.Load() == 0 {
		t.Fatal("record mode never reached the live server")
	}
	srv.Close()
	before := hits.Load()

	// Replay: any base URL works (the default scrub normalized the host),
	// and the dead server must not be touched.
	rp, err := Open(file, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Recording() {
		t.Fatal("replay trace opened in record mode")
	}
	replayed := driveClient(t, "http://replay.invalid", rp.Client())
	if err := rp.Close(); err != nil {
		t.Fatal(err)
	}
	if hits.Load() != before {
		t.Fatal("replay touched the live server")
	}
	if len(recorded) != len(replayed) {
		t.Fatalf("recorded %d exchanges, replayed %d", len(recorded), len(replayed))
	}
	for i := range recorded {
		if recorded[i] != replayed[i] {
			t.Errorf("exchange %d: recorded %q, replayed %q", i, recorded[i], replayed[i])
		}
	}
}

// TestRecordingIsStable: recording the same exchanges twice writes the same
// bytes, although the server dates every response differently.
func TestRecordingIsStable(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Date", time.Unix(hits.Add(1)*3600, 0).UTC().Format(http.TimeFormat))
		fmt.Fprintf(w, `{"path":%q}`, r.URL.Path)
	}))
	defer srv.Close()
	record := func() []byte {
		file := filepath.Join(t.TempDir(), "session.httprr")
		rr := &RecordReplay{file: file, real: http.DefaultTransport, recording: true}
		rr.scrubs = append(rr.scrubs, scrubHost)
		driveClient(t, srv.URL, rr.Client())
		if err := rr.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	first, second := record(), record()
	if !bytes.Equal(first, second) {
		t.Fatalf("two recordings of the same exchanges differ:\n%s\n---\n%s", first, second)
	}
	if bytes.Contains(first, []byte("Date:")) {
		t.Fatalf("the trace records a Date header:\n%s", first)
	}
}

// TestReplayUnrecordedRequestFails pins the failure mode: a request absent
// from the trace is a descriptive error, not a silent pass.
func TestReplayUnrecordedRequestFails(t *testing.T) {
	file := filepath.Join(t.TempDir(), "session.httprr")
	srv, _ := startServer(t)
	rr := &RecordReplay{file: file, real: http.DefaultTransport, recording: true}
	rr.scrubs = append(rr.scrubs, scrubHost)
	if _, err := rr.Client().Get(srv.URL + "/a"); err != nil {
		t.Fatal(err)
	}
	if err := rr.Close(); err != nil {
		t.Fatal(err)
	}

	rp, err := Open(file, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Close()
	if _, err := rp.Client().Get("http://replay.invalid/never-recorded"); err == nil {
		t.Fatal("unrecorded request replayed without error")
	} else if !strings.Contains(err.Error(), "not in trace") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

// TestOpenMissingTrace pins the error message pointing at -httprecord.
func TestOpenMissingTrace(t *testing.T) {
	_, err := Open(filepath.Join(t.TempDir(), "ghost.httprr"), nil)
	if err == nil || !strings.Contains(err.Error(), "-httprecord") {
		t.Fatalf("missing-trace error %v does not mention -httprecord", err)
	}
}

// TestScrubReq proves custom scrubs shape the match key: a header that
// differs per run is stripped on both sides, so replay still matches.
func TestScrubReq(t *testing.T) {
	file := filepath.Join(t.TempDir(), "session.httprr")
	srv, _ := startServer(t)
	scrub := func(req *http.Request) error {
		req.Header.Del("X-Run-Nonce")
		return nil
	}

	rr := &RecordReplay{file: file, real: http.DefaultTransport, recording: true}
	rr.scrubs = append(rr.scrubs, scrubHost)
	rr.ScrubReq(scrub)
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/a", nil)
	req.Header.Set("X-Run-Nonce", "record-time")
	if _, err := rr.Client().Do(req); err != nil {
		t.Fatal(err)
	}
	if err := rr.Close(); err != nil {
		t.Fatal(err)
	}

	rp, err := Open(file, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Close()
	rp.ScrubReq(scrub)
	req2, _ := http.NewRequest(http.MethodGet, "http://replay.invalid/a", nil)
	req2.Header.Set("X-Run-Nonce", "replay-time")
	resp, err := rp.Client().Do(req2)
	if err != nil {
		t.Fatalf("scrubbed request did not match: %v", err)
	}
	resp.Body.Close()
}

// TestParseTraceRejectsGarbage covers the corrupt-file surface.
func TestParseTraceRejectsGarbage(t *testing.T) {
	for _, data := range []string{
		"",
		"not a trace\n",
		traceHeader + "\n5\n",
		traceHeader + "\n5 5\nabc",
		traceHeader + "\n-1 2\nabc",
	} {
		if _, err := parseTrace([]byte(data)); err == nil {
			t.Errorf("parseTrace accepted %q", data)
		}
	}
}

// TestOpenRecordFlag proves the -httprecord regexp routes matching files to
// record mode without requiring the file to exist.
func TestOpenRecordFlag(t *testing.T) {
	old := *record
	*record = `\.httprr$`
	defer func() { *record = old }()
	file := filepath.Join(t.TempDir(), "fresh.httprr")
	rr, err := Open(file, http.DefaultTransport)
	if err != nil {
		t.Fatal(err)
	}
	if !rr.Recording() {
		t.Fatal("matching file not in record mode")
	}
	if err := rr.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(file); err != nil {
		t.Fatalf("record-mode Close wrote no trace: %v", err)
	}
}
