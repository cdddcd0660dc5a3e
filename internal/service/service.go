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
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// writeJSON writes v with the given status code.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
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

// maxDrainBytes bounds what decodeReply reads past the value it wanted: more
// than any reply a module sends, so the connection is reused, but a bound, so
// a misbehaving peer cannot hold the caller.
const maxDrainBytes = 1 << 20

// decodeReply parses a response, turning API error payloads into Go errors.
// The body is drained before it is closed on every path: net/http only puts
// a connection back in the keep-alive pool once its body was read to the end,
// so a caller that ignores the reply (v == nil) would otherwise open a new
// TCP connection per call.
func decodeReply(resp *http.Response, v any) error {
	defer func() {
		io.CopyN(io.Discard, resp.Body, maxDrainBytes) //nolint:errcheck // a failed drain only costs the connection
		resp.Body.Close()
	}()
	if resp.StatusCode >= 400 {
		var e apiError
		if err := json.NewDecoder(resp.Body).Decode(&e); err == nil && e.Error != "" {
			return fmt.Errorf("service: %s", e.Error)
		}
		return fmt.Errorf("service: HTTP %d", resp.StatusCode)
	}
	if v == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
