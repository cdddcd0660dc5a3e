// Package service is the deployable flavor of SpeQuloS: each module —
// Information, Credit System, Oracle, Scheduler — runs as an independent
// HTTP/JSON web service, so a deployment can split them across networks and
// firewalls exactly as the EDGI production setup does (§3.7: "Each module
// can be deployed on different networks ... communication between modules
// use web services"; Fig 8 shows the modules split and duplicated).
//
// The paper's prototype is Python + MySQL + libcloud; here each module
// wraps its counterpart from internal/core behind a REST API, with typed Go
// clients so the modules can talk to each other remotely. internal/cloud's
// Driver registry plays the role of libcloud.
package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
)

// replyBufs holds the buffers replies are encoded into before they are sent,
// and the buffers decodeReply reads reply bodies into.
var replyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// putReplyBuf returns a buffer to replyBufs unless one oversized reply grew
// it past what the pool should keep.
func putReplyBuf(buf *bytes.Buffer) {
	if buf.Cap() <= maxBodyBytes {
		replyBufs.Put(buf)
	}
}

// writeJSON writes v with the given status code. v is encoded before the
// status line goes out, so a value encoding/json refuses (a NaN) answers 500
// with the error body instead of the status with no body, and the reply
// carries a Content-Length: net/http would send a reply larger than its
// 2 KB write buffer chunked.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := replyBufs.Get().(*bytes.Buffer)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		buf.Reset()
		status = http.StatusInternalServerError
		json.NewEncoder(buf).Encode(apiError{Error: "encoding the reply: " + err.Error()}) //nolint:errcheck // a string always encodes
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	w.Write(buf.Bytes()) //nolint:errcheck // a failed write is the client's to notice
	putReplyBuf(buf)
}

// writeErr writes a JSON error payload.
func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// maxBodyBytes caps request bodies across every module: the wire format's
// largest legitimate payload (a progress-batch reply for thousands of
// batches) is far under 1 MiB, and an unbounded decoder lets one client
// stream gigabytes into a module's memory.
const maxBodyBytes = 1 << 20

// readJSON decodes the request body into v, rejecting bodies over
// maxBodyBytes.
func readJSON(r *http.Request, v any) error {
	defer r.Body.Close()
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("service: bad request body: %w", err)
	}
	return nil
}

// apiError is the error payload shape shared by all services.
type apiError struct {
	Error string `json:"error"`
}

// decodeReply parses a response, turning API error payloads into Go errors.
// It reads the body to its end into a pooled buffer, sized up front from
// Content-Length when the reply has one, closes it and decodes the buffer
// with one json.Unmarshal, which copies what it keeps: no decoded value
// shares memory with the buffer. Reading to the end on every path, a reply
// the caller ignores (v == nil) included, is what lets net/http put the
// connection back in the keep-alive pool.
func decodeReply(resp *http.Response, v any) error {
	buf := replyBufs.Get().(*bytes.Buffer)
	buf.Reset()
	defer putReplyBuf(buf)
	if n := resp.ContentLength; n > 0 {
		// MinRead more, so the read that finds the end needs no growth; at
		// most maxBodyBytes up front, whatever the header claims.
		buf.Grow(int(min(n, maxBodyBytes)) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode >= 400 {
		var e apiError
		if json.Unmarshal(buf.Bytes(), &e) == nil && e.Error != "" {
			return fmt.Errorf("service: %s", e.Error)
		}
		return fmt.Errorf("service: HTTP %d", resp.StatusCode)
	}
	if v == nil {
		return nil
	}
	if err != nil {
		return fmt.Errorf("service: reading the reply: %w", err)
	}
	return json.Unmarshal(buf.Bytes(), v)
}
