package service

import (
	"fmt"
	"net/http"
	"slices"
	"sort"
	"time"

	"spequlos/internal/cloud"
	"spequlos/internal/core"
	"spequlos/internal/middleware"
)

// DGGateway abstracts the Desktop Grid server the Scheduler monitors. A
// production deployment implements it against a BOINC or XWHEP server's
// status API (or the 3G-Bridge for grid-submitted BoTs); tests and demos
// use a scripted fake, and internal/emul drives a fully simulated DG
// behind the same interface and serves it over HTTP.
type DGGateway interface {
	// ProgressBatch returns the server's view of every named batch, keyed
	// by batch ID: one round trip per tick however many batches there are.
	// Each batch's IdleInstances names its cloud instances whose worker is
	// connected and holds no assignment; the Greedy release policy stops
	// them (§3.5: "Cloud workers that do not have tasks assigned stop
	// immediately"). A gateway that cannot tell names none.
	ProgressBatch(batchIDs []string) (map[string]middleware.Progress, error)
	// WorkerURL is the endpoint cloud workers connect to.
	WorkerURL() string
}

// SchedulerService is the deployable Scheduler module: it drives the
// monitor loop of Algorithms 1 and 2 against remote Information, Credit and
// Oracle services, launching cloud workers through the provider registry
// (libcloud's role).
//
//	POST /qos        {user, batch_id, env_key, size, credits, provider, image}
//	GET  /qos/{id}   QoS status of a batch
//	POST /step       run one monitor iteration (the daemon also ticks)
//	GET  /instances  list managed cloud instances
//
// One monitor iteration is core.Monitor.Run — the simulator's tick — over
// ports that are this module's bulk clients, so its cost in round trips does
// not depend on how many batches there are: one DG poll, which also names
// the idle instances Greedy releases, then POST /samples to Information,
// POST /bills and POST /orders/lookup to Credit, POST /plans to the Oracle
// (which makes one POST /statuses to Information) — the last three only for
// the batches whose DG progress has reached the Wait of their last plan, so
// a tick where every batch waits makes none of them; to finalize the batches
// that completed, POST /orders/pay to Credit and POST /calibrations to the
// Oracle (which again makes one POST /statuses); and per batch only one call
// per instance launched or stopped. The Scheduler reads no tick view: the
// Oracle plans and archives from Information. Step is that tick over every
// batch: core.Monitor.Step, which runs one tick at a time, so a step that
// finds one running returns nil at once.
type SchedulerService struct {
	Routes
	info     *InformationClient
	credits  *CreditClient
	oracle   *OracleClient
	registry *cloud.Registry
	dg       DGGateway

	// TierPolicy, when non-nil, gates cloud-worker launches when supply is
	// contended: each tick, the batches whose plan says start go through one
	// TierPolicy.Admit call (caps, weighted slot reservation, wait-boosted
	// priority) and the denied ones retry on later ticks.
	TierPolicy *core.TierPolicy

	// Now is the clock used for billing; overridable in tests.
	Now func() time.Time

	// mon holds every batch ever registered (Status answers for the
	// finalized ones too) and runs the tick. No lock is held across a call to
	// a module, the DG or a cloud driver: the daemon ticker and external POST
	// /step clients may race, and mon.Step lets one tick run at a time, so a
	// double step neither double-bills nor double-launches; the tick writes a
	// record under mon.Mu only for the benefit of Status and Instances.
	mon *core.Monitor
}

// QoSRequest registers a batch for QoS support (registerQoS + orderQoS of
// Fig 3 in one call).
type QoSRequest struct {
	User    string  `json:"user"`
	BatchID string  `json:"batch_id"`
	EnvKey  string  `json:"env_key"`
	Size    int     `json:"size"`
	Credits float64 `json:"credits"`
	// Tier is the batch's service class (enterprise, premium or free; empty
	// means untiered and is treated as free when a tier policy is active).
	Tier     string `json:"tier,omitempty"`
	Provider string `json:"provider"`
	Image    string `json:"image"`
}

// QoSStatus reports the Scheduler's view of a batch.
type QoSStatus struct {
	BatchID string `json:"batch_id"`
	// Tier is the batch's service class (empty for untiered batches).
	Tier      string `json:"tier,omitempty"`
	Started   bool   `json:"started"`
	Exhausted bool   `json:"exhausted"`
	Finalized bool   `json:"finalized"`
	// TriggeredAt is when cloud support started, in seconds since
	// registration (-1 if it never did).
	TriggeredAt float64              `json:"triggered_at"`
	Instances   []cloud.InstanceInfo `json:"instances"`
}

// NewSchedulerService wires the Scheduler to its collaborators.
func NewSchedulerService(info *InformationClient, credits *CreditClient, oracle *OracleClient,
	registry *cloud.Registry, dg DGGateway) *SchedulerService {
	s := &SchedulerService{
		info: info, credits: credits, oracle: oracle, registry: registry, dg: dg,
		Now: time.Now,
	}
	s.mon = &core.Monitor{Ports: (*schedulerPorts)(s)}
	s.Handle("POST /qos", Endpoint(http.StatusCreated, s.qos))
	s.Handle("GET /qos/{id}", EndpointNoBody(http.StatusOK, func(r *http.Request) (QoSStatus, error) {
		st, err := s.Status(r.PathValue("id"))
		return st, Fail(http.StatusNotFound, err)
	}))
	s.Handle("POST /step", EndpointNoBody(http.StatusOK, func(*http.Request) (map[string]string, error) {
		return map[string]string{"status": "ok"}, Fail(http.StatusBadGateway, s.Step())
	}))
	s.Handle("GET /instances", EndpointNoBody(http.StatusOK, func(*http.Request) ([]cloud.InstanceInfo, error) {
		return s.Instances(), nil
	}))
	return s
}

// qos is POST /qos: RegisterQoS as the identity the auth gate stamped on the
// request, if one did.
func (s *SchedulerService) qos(r *http.Request, req QoSRequest) (map[string]string, error) {
	// Behind an auth gate (see auth.go) the request runs as the key's
	// identity: an absent body tier/user inherits the credential's, a body
	// tier outranking the credential's is rejected — a free key cannot order
	// enterprise service — and so is a body user other than the key's, who
	// would pay for the order.
	if kt := r.Header.Get(AuthTierHeader); kt != "" {
		keyTier, err := core.ParseTier(kt)
		if err == nil {
			reqTier := core.Tier(req.Tier)
			if req.Tier == "" {
				req.Tier = string(keyTier.OrFree())
			} else if reqTier.Rank() > keyTier.Rank() {
				return nil, Fail(http.StatusForbidden, fmt.Errorf(
					"scheduler: tier %s exceeds the API key's tier %s", reqTier, keyTier.OrFree()))
			}
		}
		keyUser := r.Header.Get(AuthUserHeader)
		if req.User == "" {
			req.User = keyUser
		} else if req.User != keyUser {
			return nil, Fail(http.StatusForbidden, fmt.Errorf(
				"scheduler: user %q is not the API key's user %q", req.User, keyUser))
		}
	}
	return map[string]string{"batch_id": req.BatchID}, Fail(http.StatusConflict, s.RegisterQoS(req))
}

// RegisterQoS is core.Monitor.RegisterQoS over this module's ports, with the
// batch's tier parsed, its Provider and Image kept for its launches, and one
// reading of the clock as its registration and submission instant.
func (s *SchedulerService) RegisterQoS(req QoSRequest) error {
	tier, err := core.ParseTier(req.Tier)
	if err != nil {
		return fmt.Errorf("scheduler: %w", err)
	}
	b := core.NewBatch(req.BatchID, req.EnvKey, tier, unixSeconds(s.Now()))
	b.Provider, b.Image = req.Provider, req.Image
	return s.mon.RegisterQoS(b, req.User, req.Size, req.Credits)
}

// unixSeconds puts the service clock on the monitor's time base.
func unixSeconds(t time.Time) float64 { return float64(t.Unix()) + float64(t.Nanosecond())/1e9 }

// Status returns the Scheduler's view of a batch.
func (s *SchedulerService) Status(batchID string) (QoSStatus, error) {
	s.mon.Mu.Lock()
	defer s.mon.Mu.Unlock()
	b := s.mon.Batches[batchID]
	if b == nil {
		return QoSStatus{}, fmt.Errorf("scheduler: batch %q not registered", batchID)
	}
	st := QoSStatus{BatchID: b.ID, Tier: string(b.Tier), Started: b.Started,
		Exhausted: b.Exhausted, Finalized: b.Finalized, TriggeredAt: -1}
	if b.TriggeredAt >= 0 {
		st.TriggeredAt = b.TriggeredAt - b.RegisteredAt
	}
	for _, inst := range b.Instances {
		st.Instances = append(st.Instances, inst.Info)
	}
	return st, nil
}

// Instances lists every managed cloud instance.
func (s *SchedulerService) Instances() []cloud.InstanceInfo {
	s.mon.Mu.Lock()
	defer s.mon.Mu.Unlock()
	var out []cloud.InstanceInfo
	for _, b := range s.mon.Batches {
		for _, inst := range b.Instances {
			out = append(out, inst.Info)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Step runs one monitor iteration over every registered batch (the body of
// Algorithms 1 and 2).
func (s *SchedulerService) Step() error { return s.mon.Step(unixSeconds(s.Now()), s.TierPolicy, "") }

// Monitor is the Scheduler's batch registry and tick, for a caller that
// steps it on a schedule of its own: internal/emul's core.Driver, at the
// simulation engine's instants.
func (s *SchedulerService) Monitor() *core.Monitor { return s.mon }

// Usage reports a batch's cloud consumption: core.Monitor.Usage, times in
// Unix seconds, and the Credit module's bill of its order, if it has one.
func (s *SchedulerService) Usage(id string) (core.CloudUsage, error) {
	u, ordered, err := s.mon.Usage(id, unixSeconds(s.Now()))
	if ordered {
		var o core.Order
		o, err = s.credits.OrderOf(id)
		u.CreditsBilled = o.Billed
	}
	return u, err
}

// schedulerPorts is a SchedulerService as the monitor's ports: one bulk
// request per list, one call per registration, instance or order otherwise.
type schedulerPorts SchedulerService

func batchIDs(bs []*core.Batch) []string {
	ids := make([]string, len(bs))
	for i, b := range bs {
		ids[i] = b.ID
	}
	return ids
}

func (p *schedulerPorts) Order(b *core.Batch, user string, credits float64) error {
	return p.credits.Order(user, b.ID, credits)
}

func (p *schedulerPorts) Track(b *core.Batch, size int) error {
	return p.info.Track(TrackRequest{BatchID: b.ID, EnvKey: b.EnvKey, Size: size, SubmittedAt: b.RegisteredAt})
}

// Progress is one aggregated query to the gateway. A failed query sidelines
// every batch for the tick, a batch the reply leaves out only itself; either
// retries on the next tick.
func (p *schedulerPorts) Progress(bs []*core.Batch) {
	polled, err := p.dg.ProgressBatch(batchIDs(bs))
	for _, b := range bs {
		pr, ok := polled[b.ID]
		switch {
		case err != nil:
			b.Err = fmt.Errorf("scheduler: DG batch progress: %w", err)
		case !ok:
			b.Err = fmt.Errorf("scheduler: DG reply omitted batch %q", b.ID)
		default:
			b.Progress = pr
		}
	}
}

func (p *schedulerPorts) Sample(bs []*core.Batch, ss []core.Sample) {
	items := make([]BatchSample, len(bs))
	for i, b := range bs {
		items[i] = BatchSample{BatchID: b.ID, Sample: ss[i]}
	}
	for i, res := range p.info.AddSamples(items) {
		bs[i].Err = itemErr(res.Error)
	}
}

func (p *schedulerPorts) Bill(bs []*core.Batch) {
	items := make([]BillItem, len(bs))
	for i, b := range bs {
		items[i] = BillItem{BatchID: b.ID, Credits: b.Charges}
	}
	for i, res := range p.credits.Bills(items) {
		bs[i].Applied, bs[i].Dry, bs[i].Err = res.Applied, res.Exhausted, itemErr(res.Error)
	}
}

func (p *schedulerPorts) Orders(bs []*core.Batch) {
	for i, o := range p.credits.Orders(batchIDs(bs)) {
		bs[i].Funded, bs[i].Remaining, bs[i].Err = o.HasCredits, o.Remaining, itemErr(o.Error)
	}
}

func (p *schedulerPorts) Plan(bs []*core.Batch) {
	reqs := make([]PlanRequest, len(bs))
	for i, b := range bs {
		reqs[i] = PlanRequest{BatchID: b.ID, CreditCPUHours: b.Remaining / core.CreditsPerCPUHour}
	}
	for i, res := range p.oracle.Plans(reqs) {
		bs[i].Plan, bs[i].Err = res.Plan, itemErr(res.Error)
	}
}

// Idle reads the tick's DG poll: an instance the gateway does not name idle
// is not.
func (p *schedulerPorts) Idle(b *core.Batch, inst *core.Instance) bool {
	return slices.Contains(b.Progress.IdleInstances, inst.Info.ID)
}

func (p *schedulerPorts) Stop(b *core.Batch, inst *core.Instance) error {
	driver, err := p.registry.Get(b.Provider)
	if err != nil {
		return err
	}
	return driver.Terminate(inst.Info.ID)
}

func (p *schedulerPorts) Launch(b *core.Batch) (core.Instance, error) {
	driver, err := p.registry.Get(b.Provider)
	if err != nil {
		return core.Instance{}, err
	}
	info, err := driver.Launch(cloud.LaunchRequest{Image: b.Image, BatchID: b.ID, DGServer: p.dg.WorkerURL()})
	return core.Instance{Info: info}, err
}

func (p *schedulerPorts) Pay(bs []*core.Batch) {
	for i, res := range p.credits.Pays(batchIDs(bs)) {
		bs[i].Err = itemErr(res.Error)
	}
}

// Archive has the Oracle archive each batch's execution: one POST
// /calibrations, for which the Oracle reads the batches' tick views from
// Information itself.
func (p *schedulerPorts) Archive(bs []*core.Batch) {
	items := make([]CalibrationItem, len(bs))
	for i, b := range bs {
		items[i] = CalibrationItem{BatchID: b.ID, EnvKey: b.EnvKey}
	}
	for i, res := range p.oracle.Calibrations(items) {
		bs[i].Err = itemErr(res.Error)
	}
}

// SchedulerClient is the typed client of the Scheduler service: what a user
// of the QoS service calls (Fig 3).
type SchedulerClient struct{ Client }

// RegisterQoS registers a batch for QoS support and places its order.
func (c *SchedulerClient) RegisterQoS(req QoSRequest) error {
	return c.Post(req, nil, "qos")
}
