package service

import (
	"net/http"

	"spequlos/internal/core"
)

// OracleService exposes the Oracle module over HTTP (§3.4, §3.5). It reads
// BoT state from a (possibly remote) Information service, so the two
// modules can be deployed on different hosts, as in the EDGI setup: the full
// summary (GET /batches/{id}) for a prediction, the tick view (POST
// /statuses) for a plan.
//
//	GET  /predict/{batch}       completion-time prediction
//	POST /plans                 start decisions for many batches
//	POST /calibrations          archive many batches' executions
//	GET  /calibration/{env...}  α, success rate and count of an environment, as of one instant (env keys contain "/")
//
// The two bulk routes (see bulk.go) are the Scheduler tick's: /plans reads
// every batch's tick view with one POST /statuses to Information and runs
// core.Oracle.Plan on each; /calibrations archives each item's execution
// under its environment key.
type OracleService struct {
	Routes
	oracle *core.Oracle
	info   *InformationClient
}

// NewOracleService builds an Oracle service reading from the given
// Information service.
func NewOracleService(o *core.Oracle, info *InformationClient) *OracleService {
	s := &OracleService{oracle: o, info: info}
	s.Handle("GET /predict/{batch}", EndpointNoBody(http.StatusOK, func(r *http.Request) (core.Prediction, error) {
		st, err := info.Status(r.PathValue("batch"))
		if err != nil {
			return core.Prediction{}, Fail(http.StatusBadGateway, err)
		}
		p, err := o.PredictView(st)
		return p, Fail(http.StatusConflict, err)
	}))
	s.Handle("POST /plans", Endpoint(http.StatusOK, s.plans))
	s.Handle("POST /calibrations", serveBulk(func(it CalibrationItem) string { return it.BatchID }, func(it CalibrationItem) ItemResult {
		o.Calibration.Record(it.EnvKey, it.Base, it.Actual)
		return ItemResult{}
	}))
	s.Handle("GET /calibration/{env...}", EndpointNoBody(http.StatusOK, func(r *http.Request) (CalibrationStatus, error) {
		env := r.PathValue("env")
		fit := o.Calibration.Fit(env)
		return CalibrationStatus{EnvKey: env, Alpha: fit.Alpha, SuccessRate: fit.SuccessRate(), Count: fit.Count}, nil
	}))
	return s
}

// PlanRequest asks whether (and with how many workers) to start cloud
// support for a batch.
type PlanRequest struct {
	BatchID        string  `json:"batch_id"`
	CreditCPUHours float64 `json:"credit_cpu_hours"`
}

// PlanReply is the Oracle's provisioning decision (Algorithm 1), computed by
// core.Oracle.Plan from the batch's tick view and the credits in the request.
type PlanReply = core.Plan

// PlanResult is one result of POST /plans.
type PlanResult struct {
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

// CalibrationItem is one item of POST /calibrations: the execution of the
// named batch.
type CalibrationItem struct {
	BatchID string `json:"batch_id"`
	CalibrationRecord
}

// CalibrationStatus reports an environment's fit (core.Calibration.Fit).
type CalibrationStatus struct {
	EnvKey      string  `json:"env_key"`
	Alpha       float64 `json:"alpha"`
	SuccessRate float64 `json:"success_rate"`
	Count       int     `json:"count"`
}

// plans is POST /plans: one POST /statuses to Information, then
// core.Oracle.Plan on each tick view.
func (s *OracleService) plans(_ *http.Request, req BulkRequest[PlanRequest]) (BulkReply[PlanResult], error) {
	reqs := req.Items
	if err := checkBulk(reqs, func(p PlanRequest) string { return p.BatchID }); err != nil {
		return BulkReply[PlanResult]{}, Fail(http.StatusBadRequest, err)
	}
	ids := make([]string, len(reqs))
	for i, req := range reqs {
		ids[i] = req.BatchID
	}
	results := make([]PlanResult, len(reqs))
	for i, st := range s.info.Statuses(ids) {
		switch {
		case st.Error != "":
			// Information refused the batch: pass its reason on.
			results[i].Error = itemErr(st.Error).Error()
		case st.Status == nil:
			results[i].Error = "information returned neither a status nor an error"
		default:
			results[i].Plan = s.oracle.Plan(*st.Status, reqs[i].CreditCPUHours)
		}
	}
	return BulkReply[PlanResult]{Results: results}, nil
}

// OracleClient is the typed client of the Oracle service.
type OracleClient struct{ Client }

// NewOracleClient builds a client for the given base URL.
func NewOracleClient(baseURL string) *OracleClient {
	return &OracleClient{Client{BaseURL: baseURL, HTTP: http.DefaultClient}}
}

// Predict fetches a completion-time prediction.
func (c *OracleClient) Predict(batchID string) (p core.Prediction, err error) {
	err = c.Get(&p, "predict", batchID)
	return p, err
}

// Plans asks for many provisioning decisions with POST /plans and returns one
// result per request, in order. A request that fails as a whole is reported
// in the results of the items it carried.
func (c *OracleClient) Plans(reqs []PlanRequest) []PlanResult {
	return bulkCall(&c.Client, []string{"plans"}, reqs, oneEach,
		func(msg string) PlanResult { return PlanResult{Error: msg} })
}

// Calibrations archives many finished executions with POST /calibrations and
// returns one result per item, in order.
func (c *OracleClient) Calibrations(items []CalibrationItem) []ItemResult {
	return bulkCall(&c.Client, []string{"calibrations"}, items, oneEach,
		func(msg string) ItemResult { return ItemResult{Error: msg} })
}

// Calibration fetches an environment's α status.
func (c *OracleClient) Calibration(envKey string) (st CalibrationStatus, err error) {
	err = c.Get(&st, "calibration", envKey)
	return st, err
}
