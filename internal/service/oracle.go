package service

import (
	"fmt"
	"net/http"
	"sync"

	"spequlos/internal/core"
)

// OracleService exposes the Oracle module over HTTP (§3.4, §3.5). It reads
// BoT state from a (possibly remote) Information service, so the two
// modules can be deployed on different hosts, as in the EDGI setup.
//
//	GET  /predict/{batch}       completion-time prediction
//	POST /plan                  {batch_id, credit_cpu_hours} → start decision
//	POST /plans                 start decisions for many batches
//	POST /calibration           {env_key, base, actual} archive an execution
//	GET  /calibration/{env}     α and success rate of an environment
//
// The bulk route /plans (see bulk.go) is the Scheduler tick's: it reads every
// batch's state with one POST /statuses to Information and runs /plan's
// decision on each.
type OracleService struct {
	mu     sync.Mutex
	oracle *core.Oracle
	info   *InformationClient
}

// NewOracleService builds an Oracle service reading from the given
// Information service.
func NewOracleService(o *core.Oracle, info *InformationClient) *OracleService {
	return &OracleService{oracle: o, info: info}
}

// PlanRequest asks whether (and with how many workers) to start cloud
// support for a batch.
type PlanRequest struct {
	BatchID        string  `json:"batch_id"`
	CreditCPUHours float64 `json:"credit_cpu_hours"`
}

// PlanReply is the Oracle's provisioning decision (Algorithm 1), computed by
// core.Oracle.Plan from the batch's status and the credits in the request.
type PlanReply = core.Plan

// PlanResult is one result of POST /plans.
type PlanResult struct {
	// BatchID names the batch.
	BatchID string `json:"batch_id"`
	// Plan is the decision; meaningful only when Error is empty.
	Plan PlanReply `json:"plan"`
	// Error is empty on success.
	Error string `json:"error,omitempty"`
}

// CalibrationRecord archives one finished execution.
type CalibrationRecord struct {
	EnvKey string  `json:"env_key"`
	Base   float64 `json:"base"`   // tc(0.5)/0.5 at prediction time
	Actual float64 `json:"actual"` // observed completion time
}

// CalibrationStatus reports an environment's fitted α.
type CalibrationStatus struct {
	EnvKey      string  `json:"env_key"`
	Alpha       float64 `json:"alpha"`
	SuccessRate float64 `json:"success_rate"`
	Count       int     `json:"count"`
}

// ServeHTTP implements http.Handler.
func (s *OracleService) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.Method == http.MethodGet && pathTail(r.URL.Path, "/predict/") != "":
		id := pathTail(r.URL.Path, "/predict/")
		st, err := s.info.Status(id)
		if err != nil {
			writeErr(w, http.StatusBadGateway, err)
			return
		}
		s.mu.Lock()
		p, err := s.oracle.PredictView(st)
		s.mu.Unlock()
		if err != nil {
			writeErr(w, http.StatusConflict, err)
			return
		}
		writeJSON(w, http.StatusOK, p)

	case r.Method == http.MethodPost && r.URL.Path == "/plan":
		var req PlanRequest
		if err := readJSON(r, &req); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		st, err := s.info.Status(req.BatchID)
		if err != nil {
			writeErr(w, http.StatusBadGateway, err)
			return
		}
		writeJSON(w, http.StatusOK, s.oracle.Plan(st, req.CreditCPUHours))

	case r.Method == http.MethodPost && r.URL.Path == "/plans":
		reqs, err := readBulk(r, func(p PlanRequest) string { return p.BatchID })
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		ids := make([]string, len(reqs))
		for i, req := range reqs {
			ids[i] = req.BatchID
		}
		results := make([]PlanResult, len(reqs))
		for i, st := range s.info.Statuses(ids) {
			results[i] = PlanResult{BatchID: ids[i]}
			switch {
			case st.Error != "":
				// The text /plan answers when its status fetch fails.
				results[i].Error = itemErr(st.Error).Error()
			case st.Status == nil:
				results[i].Error = "information returned neither a status nor an error"
			default:
				results[i].Plan = s.oracle.Plan(*st.Status, reqs[i].CreditCPUHours)
			}
		}
		writeJSON(w, http.StatusOK, BulkReply[PlanResult]{Results: results})

	case r.Method == http.MethodPost && r.URL.Path == "/calibration":
		var rec CalibrationRecord
		if err := readJSON(r, &rec); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		s.mu.Lock()
		s.oracle.Calibration.Record(rec.EnvKey, rec.Base, rec.Actual)
		s.mu.Unlock()
		writeJSON(w, http.StatusAccepted, map[string]string{"env_key": rec.EnvKey})

	case r.Method == http.MethodGet && pathTail(r.URL.Path, "/calibration/") != "":
		env := pathTail(r.URL.Path, "/calibration/")
		s.mu.Lock()
		st := CalibrationStatus{
			EnvKey:      env,
			Alpha:       s.oracle.Calibration.Alpha(env),
			SuccessRate: s.oracle.Calibration.SuccessRate(env),
			Count:       s.oracle.Calibration.Count(env),
		}
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, st)

	default:
		writeErr(w, http.StatusNotFound, fmt.Errorf("no route %s %s", r.Method, r.URL.Path))
	}
}

// OracleClient is the typed client of the Oracle service.
type OracleClient struct {
	BaseURL string
	HTTP    *http.Client
}

// NewOracleClient builds a client for the given base URL.
func NewOracleClient(baseURL string) *OracleClient {
	return &OracleClient{BaseURL: baseURL, HTTP: http.DefaultClient}
}

func (c *OracleClient) post(path string, body, out any) error {
	return postJSON(c.HTTP, c.BaseURL+path, body, out)
}

// Predict fetches a completion-time prediction.
func (c *OracleClient) Predict(batchID string) (p core.Prediction, err error) {
	err = getJSON(c.HTTP, c.BaseURL+"/predict/"+batchID, &p)
	return p, err
}

// Plan asks for the provisioning decision.
func (c *OracleClient) Plan(batchID string, creditHours float64) (PlanReply, error) {
	var out PlanReply
	err := c.post("/plan", PlanRequest{BatchID: batchID, CreditCPUHours: creditHours}, &out)
	return out, err
}

// Plans asks for many provisioning decisions with POST /plans and returns one
// result per request, in order. A request that fails as a whole is reported
// in the results of the items it carried.
func (c *OracleClient) Plans(reqs []PlanRequest) []PlanResult {
	return bulkCall(c.HTTP, c.BaseURL+"/plans", reqs, oneEach,
		func(p PlanRequest, msg string) PlanResult { return PlanResult{BatchID: p.BatchID, Error: msg} })
}

// RecordCalibration archives a finished execution.
func (c *OracleClient) RecordCalibration(envKey string, base, actual float64) error {
	return c.post("/calibration", CalibrationRecord{EnvKey: envKey, Base: base, Actual: actual}, nil)
}

// Calibration fetches an environment's α status.
func (c *OracleClient) Calibration(envKey string) (st CalibrationStatus, err error) {
	err = getJSON(c.HTTP, c.BaseURL+"/calibration/"+envKey, &st)
	return st, err
}
