package service

import (
	"bytes"
	"fmt"
	"net/http"
	"sync"
	"time"

	"spequlos/internal/core"
)

// InformationService exposes the Information module over HTTP:
//
//	POST /batches                     register a batch for monitoring
//	POST /batches/{id}/samples       append a monitoring sample
//	POST /samples                    append one sample to each of many batches
//	GET  /batches/{id}               batch status summary
//	POST /statuses                   status summaries of many batches
//	GET  /batches                    list tracked batch IDs
//	GET  /stats                      archive size and service uptime
//
// Samples arrive from DG-side monitors (a few hundred bytes per minute per
// BoT, as §3.2 notes), so one Information service can archive many BoTs and
// infrastructures simultaneously. The two bulk routes (see bulk.go) are what
// the Scheduler's tick and the Oracle's /plans use: each applies the
// single-item route's function to every item and reports per item.
type InformationService struct {
	mu   sync.RWMutex
	info *core.Information
	// Now is the service clock. Emulated deployments replace it with the
	// simulation's virtual clock so the module never mixes virtual and
	// real time (see internal/emul).
	Now   func() time.Time
	start time.Time
}

// NewInformationService wraps an Information archive.
func NewInformationService(info *core.Information) *InformationService {
	return &InformationService{info: info, Now: time.Now, start: time.Now()}
}

// SetClock replaces the service clock and re-anchors the uptime origin.
func (s *InformationService) SetClock(now func() time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Now = now
	s.start = now()
}

// InfoStats is the archive summary served at GET /stats.
type InfoStats struct {
	Batches       int     `json:"batches"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// TrackRequest registers a batch.
type TrackRequest struct {
	BatchID     string  `json:"batch_id"`
	EnvKey      string  `json:"env_key"`
	Size        int     `json:"size"`
	SubmittedAt float64 `json:"submitted_at"`
}

// BatchStatus is the monitoring summary of one batch as Information serves
// it: the view every Oracle decision is computed from, so a remote Oracle
// evaluates any strategy on exactly what the in-process one reads.
type BatchStatus = core.BatchView

// BatchSample is one item of POST /samples: a monitoring sample and the batch
// it belongs to.
type BatchSample struct {
	// BatchID names the batch.
	BatchID string `json:"batch_id"`
	// Sample is what POST /batches/{id}/samples takes as its body.
	Sample core.Sample `json:"sample"`
}

// StatusResult is one result of POST /statuses.
type StatusResult struct {
	// BatchID names the batch.
	BatchID string `json:"batch_id"`
	// Status is the batch's summary; nil when Error is set.
	Status *BatchStatus `json:"status,omitempty"`
	// Error is empty on success.
	Error string `json:"error,omitempty"`
}

// ServeHTTP implements http.Handler.
func (s *InformationService) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/batches":
		var req TrackRequest
		if err := readJSON(r, &req); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		if req.Size <= 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("size must be positive"))
			return
		}
		s.mu.Lock()
		_, err := s.info.Track(req.BatchID, req.EnvKey, req.Size, req.SubmittedAt)
		s.mu.Unlock()
		if err != nil {
			writeErr(w, http.StatusConflict, err)
			return
		}
		writeJSON(w, http.StatusCreated, map[string]string{"batch_id": req.BatchID})

	case r.Method == http.MethodPost && segmentsMatch(r.URL.Path, "batches", "samples"):
		id := middleSegment(r.URL.Path, "batches")
		var sample core.Sample
		if err := readJSON(r, &sample); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		if err := s.addSample(id, sample); err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusAccepted, map[string]string{"batch_id": id})

	case r.Method == http.MethodPost && r.URL.Path == "/samples":
		serveBulk(w, r, func(it BatchSample) string { return it.BatchID }, func(it BatchSample) ItemResult {
			res := ItemResult{BatchID: it.BatchID}
			if err := s.addSample(it.BatchID, it.Sample); err != nil {
				res.Error = err.Error()
			}
			return res
		})

	case r.Method == http.MethodPost && r.URL.Path == "/statuses":
		serveBulk(w, r, sameID, func(id string) StatusResult {
			st, err := s.status(id)
			if err != nil {
				return StatusResult{BatchID: id, Error: err.Error()}
			}
			return StatusResult{BatchID: id, Status: &st}
		})

	case r.Method == http.MethodGet && r.URL.Path == "/batches":
		s.mu.RLock()
		ids := s.info.BatchIDs()
		s.mu.RUnlock()
		writeJSON(w, http.StatusOK, ids)

	case r.Method == http.MethodGet && r.URL.Path == "/stats":
		s.mu.RLock()
		st := InfoStats{
			Batches:       s.info.Count(),
			UptimeSeconds: s.Now().Sub(s.start).Seconds(),
		}
		s.mu.RUnlock()
		writeJSON(w, http.StatusOK, st)

	case r.Method == http.MethodGet && pathTail(r.URL.Path, "/batches/") != "":
		st, err := s.status(pathTail(r.URL.Path, "/batches/"))
		if err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, st)

	default:
		writeErr(w, http.StatusNotFound, fmt.Errorf("no route %s %s", r.Method, r.URL.Path))
	}
}

// addSample appends one monitoring sample to a tracked batch: the per-item
// function of both sample routes.
func (s *InformationService) addSample(id string, sample core.Sample) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	bi := s.info.Get(id)
	if bi == nil {
		return fmt.Errorf("batch %q not tracked", id)
	}
	bi.AddSampleWorkers(bi.SubmittedAt+sample.T, sample.Completed, sample.Assigned, sample.Queued, sample.Running, sample.Workers)
	return nil
}

// status summarizes one tracked batch: the per-item function of both status
// routes.
func (s *InformationService) status(id string) (BatchStatus, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	bi := s.info.Get(id)
	if bi == nil {
		return BatchStatus{}, fmt.Errorf("batch %q not tracked", id)
	}
	return bi.View(), nil
}

// Info exposes the wrapped archive (used by co-located modules).
func (s *InformationService) Info() *core.Information { return s.info }

// Locked runs fn with the service lock held, for co-located readers that
// need a consistent BatchInfo view.
func (s *InformationService) Locked(fn func(*core.Information)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	fn(s.info)
}

func splitSegments(s string) []string {
	var out []string
	for _, p := range bytes.Split([]byte(s), []byte("/")) {
		if len(p) > 0 {
			out = append(out, string(p))
		}
	}
	return out
}

// InformationClient is the typed client of the Information service.
type InformationClient struct {
	BaseURL string
	HTTP    *http.Client
}

// NewInformationClient builds a client for the given base URL.
func NewInformationClient(baseURL string) *InformationClient {
	return &InformationClient{BaseURL: baseURL, HTTP: http.DefaultClient}
}

func (c *InformationClient) post(path string, body, out any) error {
	return postJSON(c.HTTP, c.BaseURL+path, body, out)
}

// Track registers a batch.
func (c *InformationClient) Track(req TrackRequest) error {
	return c.post("/batches", req, nil)
}

// AddSample appends a monitoring sample for a batch.
func (c *InformationClient) AddSample(batchID string, s core.Sample) error {
	return c.post("/batches/"+batchID+"/samples", s, nil)
}

// AddSamples appends one sample to each of many batches with POST /samples
// and returns one result per item, in order. A request that fails as a whole
// is reported in the results of the items it carried.
func (c *InformationClient) AddSamples(items []BatchSample) []ItemResult {
	return bulkCall(c.HTTP, c.BaseURL+"/samples", items, oneEach,
		func(it BatchSample, msg string) ItemResult { return ItemResult{BatchID: it.BatchID, Error: msg} })
}

// Statuses fetches the summaries of many batches with POST /statuses and
// returns one result per id, in order.
func (c *InformationClient) Statuses(batchIDs []string) []StatusResult {
	return bulkCall(c.HTTP, c.BaseURL+"/statuses", batchIDs, oneEach,
		func(id, msg string) StatusResult { return StatusResult{BatchID: id, Error: msg} })
}

// Status fetches a batch summary.
func (c *InformationClient) Status(batchID string) (st BatchStatus, err error) {
	err = getJSON(c.HTTP, c.BaseURL+"/batches/"+batchID, &st)
	return st, err
}

// Stats fetches the archive summary.
func (c *InformationClient) Stats() (st InfoStats, err error) {
	err = getJSON(c.HTTP, c.BaseURL+"/stats", &st)
	return st, err
}

// List fetches the tracked batch IDs.
func (c *InformationClient) List() (ids []string, err error) {
	err = getJSON(c.HTTP, c.BaseURL+"/batches", &ids)
	return ids, err
}
