package service

import (
	"fmt"
	"net/http"
	"time"

	"spequlos/internal/core"
)

// InformationService exposes the Information module over HTTP:
//
//	POST /batches                    register a batch for monitoring
//	POST /samples                    append one sample to each of many batches
//	GET  /batches/{id}               batch status summary
//	POST /statuses                   tick views of many batches
//	GET  /batches                    list tracked batch IDs
//	GET  /stats                      archive size and service uptime
//
// Samples arrive from DG-side monitors (a few hundred bytes per minute per
// BoT, as §3.2 notes), so one Information service can archive many BoTs and
// infrastructures simultaneously. The two bulk routes (see bulk.go) are what
// the Scheduler's tick and the Oracle's /plans and /calibrations use;
// /statuses answers each batch's core.TickView, the part of GET
// /batches/{id}'s summary that a tick reads. The archive guards itself
// (core.Information), so a co-located reader — the daemon's loop writing the
// state image — shares it with the handlers without a lock here.
type InformationService struct {
	Routes
	info *core.Information
	// Now is the service clock. Emulated deployments replace it with the
	// simulation's virtual clock so the module never mixes virtual and
	// real time (see internal/emul).
	Now   func() time.Time
	start time.Time
}

// NewInformationService wraps an Information archive.
func NewInformationService(info *core.Information) *InformationService {
	s := &InformationService{info: info, Now: time.Now, start: time.Now()}
	s.Handle("POST /batches", Endpoint(http.StatusCreated, func(_ *http.Request, req TrackRequest) (map[string]string, error) {
		if req.Size <= 0 {
			return nil, Fail(http.StatusBadRequest, fmt.Errorf("size must be positive"))
		}
		_, err := info.Track(req.BatchID, req.EnvKey, req.Size, req.SubmittedAt)
		return map[string]string{"batch_id": req.BatchID}, Fail(http.StatusConflict, err)
	}))
	s.Handle("POST /samples", serveBulk(func(it BatchSample) string { return it.BatchID },
		func(it BatchSample) ItemResult {
			if !info.AddSample(it.BatchID, it.Sample) {
				return ItemResult{Error: fmt.Sprintf("batch %q not tracked", it.BatchID)}
			}
			return ItemResult{}
		}))
	s.Handle("GET /batches/{id}", EndpointNoBody(http.StatusOK, func(r *http.Request) (BatchStatus, error) {
		st, err := s.status(r.PathValue("id"))
		return st, Fail(http.StatusNotFound, err)
	}))
	s.Handle("POST /statuses", serveBulk(sameID, func(id string) StatusResult {
		v, ok := info.TickView(id)
		if !ok {
			return StatusResult{Error: fmt.Sprintf("batch %q not tracked", id)}
		}
		return StatusResult{Status: &v}
	}))
	s.Handle("GET /batches", EndpointNoBody(http.StatusOK, func(*http.Request) ([]string, error) {
		return s.info.BatchIDs(), nil
	}))
	s.Handle("GET /stats", EndpointNoBody(http.StatusOK, func(*http.Request) (InfoStats, error) {
		return InfoStats{Batches: s.info.Count(), UptimeSeconds: s.Now().Sub(s.start).Seconds()}, nil
	}))
	return s
}

// SetClock replaces the service clock and re-anchors the uptime origin. Call
// it before the module serves.
func (s *InformationService) SetClock(now func() time.Time) {
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

// BatchStatus is the full monitoring summary of one batch, as GET
// /batches/{id} serves it and the Oracle's prediction reads it.
type BatchStatus = core.BatchView

// BatchSample is one item of POST /samples: a monitoring sample and the batch
// it belongs to.
type BatchSample struct {
	// BatchID names the batch.
	BatchID string `json:"batch_id"`
	// Sample is the monitoring sample to append.
	Sample core.Sample `json:"sample"`
}

// StatusResult is one result of POST /statuses. Its one reader, the Oracle
// (its /plans and /calibrations), reads nothing but the batch's tick view:
// every input of core.Oracle.Plan and of core.Oracle.Archive, so a remote
// Oracle plans and archives on exactly what the in-process one reads.
type StatusResult struct {
	// Status is the batch's tick view; nil when Error is set.
	Status *core.TickView `json:"status,omitempty"`
	// Error is empty on success.
	Error string `json:"error,omitempty"`
}

// status summarizes one tracked batch for GET /batches/{id}.
func (s *InformationService) status(id string) (BatchStatus, error) {
	st, ok := s.info.View(id)
	if !ok {
		return st, fmt.Errorf("batch %q not tracked", id)
	}
	return st, nil
}

// InformationClient is the typed client of the Information service.
type InformationClient struct{ Client }

// NewInformationClient builds a client for the given base URL.
func NewInformationClient(baseURL string) *InformationClient {
	return &InformationClient{Client{BaseURL: baseURL, HTTP: http.DefaultClient}}
}

// Track registers a batch.
func (c *InformationClient) Track(req TrackRequest) error {
	return c.Post(req, nil, "batches")
}

// AddSamples appends one sample to each of many batches with POST /samples
// and returns one result per item, in order. A request that fails as a whole
// is reported in the results of the items it carried.
func (c *InformationClient) AddSamples(items []BatchSample) []ItemResult {
	return bulkCall(&c.Client, []string{"samples"}, items, oneEach, itemFailed)
}

// Statuses fetches the tick views of many batches with POST /statuses and
// returns one result per id, in order.
func (c *InformationClient) Statuses(batchIDs []string) []StatusResult {
	return bulkCall(&c.Client, []string{"statuses"}, batchIDs, oneEach,
		func(msg string) StatusResult { return StatusResult{Error: msg} })
}

// Status fetches a batch summary.
func (c *InformationClient) Status(batchID string) (st BatchStatus, err error) {
	err = c.Get(&st, "batches", batchID)
	return st, err
}
