package service

import (
	"net/http"

	"spequlos/internal/core"
)

// OracleService exposes the Oracle module over HTTP (§3.4, §3.5). It reads
// BoT state from a (possibly remote) Information service, so the two
// modules can be deployed on different hosts, as in the EDGI setup: the full
// summary (GET /batches/{id}) for a prediction, the tick view (POST
// /statuses) to plan and to archive.
//
//	GET  /predict/{batch}       completion-time prediction
//	POST /plans                 start decisions for many batches
//	POST /calibrations          archive many finished batches' executions
//	GET  /calibration/{env...}  α, success rate and count of an environment, as of one instant (env keys contain "/")
//
// The two bulk routes (see bulk.go) are the Scheduler tick's, and they have
// one shape (serveViews): read every item's tick view with one POST /statuses
// to Information, then run core.Oracle.Plan on each for /plans, or
// core.Oracle.Archive under the item's environment key for /calibrations.
type OracleService struct{ Routes }

// NewOracleService builds an Oracle service reading from the given
// Information service.
func NewOracleService(o *core.Oracle, info *InformationClient) *OracleService {
	s := &OracleService{}
	s.Handle("GET /predict/{batch}", EndpointNoBody(http.StatusOK, func(r *http.Request) (core.Prediction, error) {
		st, err := info.Status(r.PathValue("batch"))
		if err != nil {
			return core.Prediction{}, Fail(http.StatusBadGateway, err)
		}
		p, err := o.PredictView(st)
		return p, Fail(http.StatusConflict, err)
	}))
	s.Handle("POST /plans", serveViews(info, func(p PlanRequest) string { return p.BatchID },
		func(p PlanRequest, v core.TickView) PlanResult { return PlanResult{Plan: o.Plan(v, p.CreditCPUHours)} },
		planFailed))
	s.Handle("POST /calibrations", serveViews(info, func(it CalibrationItem) string { return it.BatchID },
		func(it CalibrationItem, v core.TickView) ItemResult {
			o.Archive(it.EnvKey, v)
			return ItemResult{}
		}, itemFailed))
	s.Handle("GET /calibration/{env...}", EndpointNoBody(http.StatusOK, func(r *http.Request) (CalibrationStatus, error) {
		env := r.PathValue("env")
		fit := o.Calibration.Fit(env)
		return CalibrationStatus{EnvKey: env, Alpha: fit.Alpha, SuccessRate: fit.SuccessRate(), Count: fit.Count}, nil
	}))
	return s
}

// serveViews is the endpoint of an Oracle bulk route: validate the request as
// serveBulk does, read every item's tick view with one POST /statuses to
// Information, then decide on each. An item Information refuses fails alone,
// with Information's reason.
func serveViews[I, R any](info *InformationClient, id func(I) string, decide func(I, core.TickView) R, fail func(string) R) http.HandlerFunc {
	return Endpoint(http.StatusOK, func(_ *http.Request, req BulkRequest[I]) (BulkReply[R], error) {
		if err := checkBulk(req.Items, id); err != nil {
			return BulkReply[R]{}, Fail(http.StatusBadRequest, err)
		}
		ids := make([]string, len(req.Items))
		for i, it := range req.Items {
			ids[i] = id(it)
		}
		results := make([]R, len(req.Items))
		for i, st := range info.Statuses(ids) {
			switch {
			case st.Error != "":
				results[i] = fail(itemErr(st.Error).Error())
			case st.Status == nil:
				results[i] = fail("information returned neither a status nor an error")
			default:
				results[i] = decide(req.Items[i], *st.Status)
			}
		}
		return BulkReply[R]{Results: results}, nil
	})
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

// CalibrationItem is one item of POST /calibrations: a finished batch, whose
// execution the Oracle reads from Information and archives under EnvKey.
type CalibrationItem struct {
	BatchID string `json:"batch_id"`
	EnvKey  string `json:"env_key"`
}

// CalibrationStatus reports an environment's fit (core.Calibration.Fit).
type CalibrationStatus struct {
	EnvKey      string  `json:"env_key"`
	Alpha       float64 `json:"alpha"`
	SuccessRate float64 `json:"success_rate"`
	Count       int     `json:"count"`
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
	return bulkCall(&c.Client, []string{"plans"}, reqs, oneEach, planFailed)
}

// planFailed is the result of a plan request that failed.
func planFailed(msg string) PlanResult { return PlanResult{Error: msg} }

// Calibrations has the Oracle archive many finished batches' executions with
// POST /calibrations and returns one result per item, in order.
func (c *OracleClient) Calibrations(items []CalibrationItem) []ItemResult {
	return bulkCall(&c.Client, []string{"calibrations"}, items, oneEach, itemFailed)
}

// Calibration fetches an environment's α status.
func (c *OracleClient) Calibration(envKey string) (st CalibrationStatus, err error) {
	err = c.Get(&st, "calibration", envKey)
	return st, err
}
