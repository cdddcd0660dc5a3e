// Package httprr implements HTTP record and replay for tests, in the spirit
// of the Go project's internal httprr harness (SNIPPETS.md #3): a
// RoundTripper that, in record mode, forwards requests to a real transport
// and appends each request/response pair to a trace file, and in replay mode
// answers requests from the committed trace with no network at all. External
// middleware adapters (the DG wire clients of internal/emul) are conformance
// tested against recorded real-gateway traffic, so `go test` stays hermetic
// and deterministic while the recordings are regenerated against a live
// server with the -httprecord flag:
//
//	go test ./internal/emul -run Conformance -httprecord '.*'
//
// Matching is by the scrubbed wire dump of the request (method, URL path and
// query, headers, body). The default scrub normalizes the target host — a
// recording made against an ephemeral 127.0.0.1 port replays against any
// base URL — and callers add scrubs for other nondeterminism (dates, tokens)
// with ScrubReq. A response is recorded without its Date header, so
// recording an unchanged exchange again writes the same bytes.
package httprr

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httputil"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
)

var record = flag.String("httprecord", "", "re-record httprr traces for files matching this regexp (tests only)")

// traceHeader is the first line of every trace file; a version bump means
// the entry format changed.
const traceHeader = "httprr trace v1"

// hostPlaceholder replaces the live server's ephemeral host:port in
// recordings so replays are independent of the base URL used at record time.
const hostPlaceholder = "spequlos.rr"

// RecordReplay is an http.RoundTripper that either records traffic to a
// trace file or replays it. Safe for concurrent use.
type RecordReplay struct {
	file string
	real http.RoundTripper // underlying transport in record mode

	mu        sync.Mutex
	recording bool
	scrubs    []func(*http.Request) error
	entries   []entry           // record mode: pairs to flush on Close
	replay    map[string][]byte // replay mode: request dump → response dump
	closed    bool
}

type entry struct {
	req, resp []byte
}

// Open opens the trace file for replay, or for recording when the
// -httprecord flag matches it. Replaying a file that does not exist is an
// error telling the caller how to record it.
func Open(file string, rt http.RoundTripper) (*RecordReplay, error) {
	rr := &RecordReplay{file: file, real: rt}
	rr.scrubs = append(rr.scrubs, scrubHost)
	if *record != "" {
		re, err := regexp.Compile(*record)
		if err != nil {
			return nil, fmt.Errorf("httprr: bad -httprecord regexp: %w", err)
		}
		if re.MatchString(file) {
			rr.recording = true
			return rr, nil
		}
	}
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, fmt.Errorf("httprr: no trace %s (record it with -httprecord '.*'): %w", file, err)
	}
	replay, err := parseTrace(data)
	if err != nil {
		return nil, fmt.Errorf("httprr: %s: %w", file, err)
	}
	rr.replay = replay
	return rr, nil
}

// Recording reports whether the harness records live traffic (true) or
// replays the committed trace (false).
func (rr *RecordReplay) Recording() bool { return rr.recording }

// ScrubReq adds request scrubbing functions applied — to a deep copy, in
// order, at both record and replay time — before the request is matched
// against the trace. Use them to strip nondeterministic headers or body
// fields so recordings stay stable.
func (rr *RecordReplay) ScrubReq(fns ...func(*http.Request) error) {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	rr.scrubs = append(rr.scrubs, fns...)
}

// Client returns an http.Client using the RecordReplay as its transport.
func (rr *RecordReplay) Client() *http.Client { return &http.Client{Transport: rr} }

// RoundTrip implements http.RoundTripper: in record mode it forwards to the
// real transport and stores the exchange; in replay mode it answers from the
// trace, failing with a descriptive error on an unrecorded request.
func (rr *RecordReplay) RoundTrip(req *http.Request) (*http.Response, error) {
	key, body, err := rr.requestKey(req)
	if err != nil {
		return nil, err
	}
	if !rr.recording {
		rr.mu.Lock()
		respBytes, ok := rr.replay[key]
		rr.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("httprr: request not in trace %s:\n%s", rr.file, key)
		}
		return http.ReadResponse(bufio.NewReader(bytes.NewReader(respBytes)), req)
	}
	// Record: replace the consumed body, forward, capture the response.
	if body != nil {
		req.Body = io.NopCloser(bytes.NewReader(body))
	}
	resp, err := rr.real.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	respBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	// The Date header is not recorded: it changes every time the same
	// exchange is recorded again, and nothing replays against it.
	undated := *resp
	undated.Header = resp.Header.Clone()
	undated.Header.Del("Date")
	undated.Body = io.NopCloser(bytes.NewReader(respBody))
	respDump, err := httputil.DumpResponse(&undated, true)
	if err != nil {
		return nil, err
	}
	rr.mu.Lock()
	rr.entries = append(rr.entries, entry{req: []byte(key), resp: respDump})
	rr.mu.Unlock()
	resp.Body = io.NopCloser(bytes.NewReader(respBody))
	return resp, nil
}

// requestKey scrubs a copy of the request and returns its canonical wire
// dump plus the original body bytes (so record mode can restore them).
func (rr *RecordReplay) requestKey(req *http.Request) (key string, body []byte, err error) {
	if req.Body != nil {
		body, err = io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return "", nil, err
		}
	}
	creq := req.Clone(req.Context())
	if body != nil {
		creq.Body = io.NopCloser(bytes.NewReader(body))
		creq.ContentLength = int64(len(body))
	}
	rr.mu.Lock()
	scrubs := rr.scrubs
	rr.mu.Unlock()
	for _, fn := range scrubs {
		if err := fn(creq); err != nil {
			return "", nil, err
		}
	}
	dump, err := httputil.DumpRequestOut(creq, true)
	if err != nil {
		return "", nil, err
	}
	return string(dump), body, nil
}

// Close flushes the trace file in record mode (atomically: temp file +
// rename); in replay mode it is a no-op. Closing twice is an error.
func (rr *RecordReplay) Close() error {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	if rr.closed {
		return fmt.Errorf("httprr: %s already closed", rr.file)
	}
	rr.closed = true
	if !rr.recording {
		return nil
	}
	var buf bytes.Buffer
	buf.WriteString(traceHeader + "\n")
	for _, e := range rr.entries {
		fmt.Fprintf(&buf, "%d %d\n", len(e.req), len(e.resp))
		buf.Write(e.req)
		buf.Write(e.resp)
	}
	if err := os.MkdirAll(filepath.Dir(rr.file), 0o755); err != nil {
		return err
	}
	tmp := rr.file + ".tmp"
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, rr.file)
}

// parseTrace decodes a trace file into the replay map. Later entries for an
// identical request win, matching record-mode behavior where a repeated
// request observes the server's latest state.
func parseTrace(data []byte) (map[string][]byte, error) {
	line, rest, ok := bytes.Cut(data, []byte("\n"))
	if !ok || string(line) != traceHeader {
		return nil, fmt.Errorf("not an %s file", traceHeader)
	}
	replay := map[string][]byte{}
	for len(rest) > 0 {
		line, body, ok := bytes.Cut(rest, []byte("\n"))
		if !ok {
			return nil, fmt.Errorf("truncated entry header")
		}
		fields := strings.Fields(string(line))
		if len(fields) != 2 {
			return nil, fmt.Errorf("bad entry header %q", line)
		}
		nreq, err1 := strconv.Atoi(fields[0])
		nresp, err2 := strconv.Atoi(fields[1])
		if err1 != nil || err2 != nil || nreq < 0 || nresp < 0 || nreq+nresp > len(body) {
			return nil, fmt.Errorf("bad entry header %q", line)
		}
		replay[string(body[:nreq])] = body[nreq : nreq+nresp]
		rest = body[nreq+nresp:]
	}
	return replay, nil
}

// scrubHost is the default scrub: it replaces the request's target host with
// a fixed placeholder so the ephemeral port of a record-time test server
// never lands in the trace.
func scrubHost(req *http.Request) error {
	req.URL.Scheme = "http"
	req.URL.Host = hostPlaceholder
	req.Host = ""
	return nil
}
