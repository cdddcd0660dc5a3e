package service

// This file is the frame every module's wire is written on, on both sides:
// a route table the module fills once, the one handler shape every route
// has, and the base every typed client embeds. internal/emul's DG gateway
// and its DGClient use the same three, so there is one place where a request
// is routed, capped, decoded and answered, and one where it is sent.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"path"
	"slices"
	"strings"

	"spequlos/internal/core"
)

// Routes is a module's route table: net/http's ServeMux patterns ("GET
// /orders/{id}"; handlers read ids with r.PathValue), registered once by
// the module's constructor. Whatever matches no pattern is answered 404 with
// the JSON error body every other failure has — the mux's own answers (a
// plain-text 404 or 405, an HTML redirect for an unclean path) never reach a
// client. A module embeds its table, which makes it an http.Handler.
type Routes struct {
	mux      http.ServeMux
	patterns []string
}

// Handle registers the handler of one "METHOD /path" pattern.
func (rt *Routes) Handle(pattern string, h http.Handler) {
	if rt.patterns == nil {
		rt.mux.HandleFunc("/", noRoute)
	}
	if dir, ok := strings.CutSuffix(pattern, "...}"); ok {
		// "GET /calibration/{env...}" also matches "/calibration/", and the
		// mux would redirect "GET /calibration" there: claim it.
		rt.mux.HandleFunc(dir[:strings.LastIndex(dir, "/{")], noRoute)
	}
	rt.mux.Handle(pattern, h)
	rt.patterns = append(rt.patterns, pattern)
}

// Patterns lists the registered patterns, in registration order.
func (rt *Routes) Patterns() []string { return slices.Clone(rt.patterns) }

// ServeHTTP implements http.Handler. A path the mux would clean and redirect
// (a doubled or trailing slash, a dot segment) is no route. The mux looks at
// the escaped path, so an id that holds such a sequence escaped ("a%2F%2Fb")
// is left alone: the server keeps the escaped form in RawPath whenever it is
// not the default escaping of Path.
func (rt *Routes) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p := r.URL.RawPath
	if p == "" {
		p = r.URL.Path
	}
	if path.Clean(p) != p {
		noRoute(w, r)
		return
	}
	rt.mux.ServeHTTP(w, r)
}

func noRoute(w http.ResponseWriter, r *http.Request) {
	writeErr(w, http.StatusNotFound, fmt.Errorf("no route %s %s", r.Method, r.URL.Path))
}

// statusError is an error and the HTTP status an endpoint answers it with.
type statusError struct {
	error
	status int
}

// Fail gives err the status the endpoint answers it with; nil stays nil. A
// request refused for its own content (core.ErrMalformed) answers 400, like
// a body that does not decode, whatever the status given. An endpoint error
// without one is a 500.
func Fail(status int, err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, core.ErrMalformed) {
		status = http.StatusBadRequest
	}
	return statusError{err, status}
}

// Endpoint is the handler of a route that takes a JSON body: it caps and
// decodes the body into an In (a malformed, oversized or unknown-field body
// is a 400 and fn never runs), calls fn, and writes fn's reply with the
// route's success status, or its error with the status Fail gave it.
func Endpoint[In, Out any](success int, fn func(*http.Request, In) (Out, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var in In
		if err := readJSON(r, &in); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		out, err := fn(r, in)
		reply(w, success, out, err)
	}
}

// EndpointNoBody is Endpoint for a route that reads nothing but its path.
func EndpointNoBody[Out any](success int, fn func(*http.Request) (Out, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		out, err := fn(r)
		reply(w, success, out, err)
	}
}

func reply(w http.ResponseWriter, success int, out any, err error) {
	if err == nil {
		writeJSON(w, success, out)
		return
	}
	status := http.StatusInternalServerError
	if se := (statusError{}); errors.As(err, &se) {
		status = se.status
	}
	writeErr(w, status, err)
}

// Client is the base of every typed client: where the module listens and the
// http.Client that reaches it (replace HTTP to add a key, a timeout or a
// recording transport).
type Client struct {
	BaseURL string
	HTTP    *http.Client
}

// url is BaseURL followed by the path segments, each escaped: an id travels
// as one segment whatever it contains, and arrives as r.PathValue unescaped.
func (c *Client) url(segments []string) string {
	var b strings.Builder
	b.WriteString(c.BaseURL)
	for _, s := range segments {
		b.WriteByte('/')
		b.WriteString(url.PathEscape(s))
	}
	return b.String()
}

// Get fetches the route the segments name and decodes the reply into out.
func (c *Client) Get(out any, segments ...string) error {
	resp, err := c.HTTP.Get(c.url(segments))
	if err != nil {
		return err
	}
	return decodeReply(resp, out)
}

// Post sends body as JSON to the route the segments name and decodes the
// reply into out (nil discards it).
func (c *Client) Post(body, out any, segments ...string) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := c.HTTP.Post(c.url(segments), "application/json", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	return decodeReply(resp, out)
}
