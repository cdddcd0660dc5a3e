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
	ProgressBatch(batchIDs []string) (map[string]middleware.Progress, error)
	// InstanceBusy reports whether the worker booted from the given cloud
	// instance currently holds an assignment on the DG server; the Greedy
	// release policy stops the ones that do not (§3.5: "Cloud workers that
	// do not have tasks assigned stop immediately"). A gateway that cannot
	// tell answers true.
	InstanceBusy(instanceID string) (bool, error)
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
// not depend on how many batches there are: one DG poll, then POST /samples
// to Information, POST /bills and POST /orders/lookup to Credit, POST /plans
// to the Oracle (which makes one POST /statuses to Information); to finalize
// the batches that completed, POST /orders/pay to Credit, POST /statuses to
// Information and POST /calibrations to the Oracle; and per batch only one
// call per instance launched or stopped. Step and StepBatch are that tick,
// over every batch and over one.
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
	// finalized ones too) and runs the tick; mon.Mu also guards stepping. No
	// lock is held across a call to a module, the DG or a cloud driver: the
	// claim keeps other ticks off a batch, and the tick writes a record under
	// mon.Mu only for the benefit of Status and Instances.
	mon *core.Monitor
	// stepping holds the batches claimed by a tick in progress: the daemon
	// ticker and external POST /step clients may race, and a double step must
	// not double-bill or double-launch.
	stepping map[*core.Batch]bool
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
		Now:      time.Now,
		stepping: map[*core.Batch]bool{},
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
	if _, err := core.ParseTier(req.Tier); err != nil {
		return nil, Fail(http.StatusBadRequest, fmt.Errorf("scheduler: %w", err))
	}
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

// RegisterQoS places the credit order and registers the batch with the
// Information service. A rejected registration mutates nothing: the order
// comes first (the step most likely to refuse), and is paid back in full if
// Information then refuses the batch, so the same request can be retried.
func (s *SchedulerService) RegisterQoS(req QoSRequest) error {
	if req.BatchID == "" || req.Size <= 0 {
		return fmt.Errorf("scheduler: batch_id and positive size required")
	}
	tier, err := core.ParseTier(req.Tier)
	if err != nil {
		return fmt.Errorf("scheduler: %w", err)
	}
	s.mon.Mu.Lock()
	dup := s.mon.Batches[req.BatchID] != nil
	s.mon.Mu.Unlock()
	if dup {
		return fmt.Errorf("scheduler: batch %q already registered", req.BatchID)
	}
	if req.Credits > 0 {
		if err := s.credits.Order(req.User, req.BatchID, req.Credits); err != nil {
			return err
		}
	}
	if err := s.info.Track(TrackRequest{
		BatchID: req.BatchID, EnvKey: req.EnvKey, Size: req.Size,
	}); err != nil {
		if req.Credits > 0 {
			if perr := s.credits.Pays([]string{req.BatchID})[0].Error; perr != "" {
				return fmt.Errorf("%w (order not paid back: %s)", err, perr)
			}
		}
		return err
	}
	b := core.NewBatch(req.BatchID, req.EnvKey, tier, unixSeconds(s.Now()))
	b.Provider, b.Image, b.Ordered = req.Provider, req.Image, req.Credits > 0
	s.mon.Mu.Lock()
	defer s.mon.Mu.Unlock()
	return s.mon.Register(b)
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
func (s *SchedulerService) Step() error { return s.step("") }

// StepBatch runs one monitor iteration for a single batch: the same tick on
// a one-element list. The emulation's event-driven finalization uses it so
// one batch's completion settles its own billing at the completion instant
// without advancing the other batches' monitor state between ticks (the
// in-process simulator finalizes exactly one batch per completion event).
func (s *SchedulerService) StepBatch(id string) error { return s.step(id) }

// step claims the one named batch, or every live batch, and runs the monitor
// iteration over the claimed ones. A batch another tick holds is skipped, not
// an error: the other tick is doing the same work.
func (s *SchedulerService) step(only string) error {
	s.mon.Mu.Lock()
	var due []*core.Batch
	if only == "" {
		due = s.mon.Due(nil)
	} else if b := s.mon.Batches[only]; b != nil && !b.Finalized {
		due = []*core.Batch{b}
	}
	due = slices.DeleteFunc(due, func(b *core.Batch) bool { return s.stepping[b] })
	for _, b := range due {
		s.stepping[b] = true
	}
	s.mon.Mu.Unlock()
	if len(due) == 0 {
		return nil
	}
	defer func() {
		s.mon.Mu.Lock()
		defer s.mon.Mu.Unlock()
		for _, b := range due {
			delete(s.stepping, b)
		}
	}()
	return s.mon.Run(unixSeconds(s.Now()), s.TierPolicy, due, &core.Scratch{})
}

// schedulerPorts is a SchedulerService as the monitor's ports: one bulk
// request per list, one call per instance or order otherwise.
type schedulerPorts SchedulerService

func batchIDs(bs []*core.Batch) []string {
	ids := make([]string, len(bs))
	for i, b := range bs {
		ids[i] = b.ID
	}
	return ids
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

func (p *schedulerPorts) Sample(now float64, bs []*core.Batch) {
	items := make([]BatchSample, len(bs))
	for i, b := range bs {
		pr := b.Progress
		items[i] = BatchSample{BatchID: b.ID, Sample: core.Sample{
			T: now - b.RegisteredAt, Completed: pr.Completed, Assigned: pr.EverAssigned,
			Queued: pr.Queued, Running: pr.Running, Workers: pr.Workers,
		}}
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

// Idle: an instance still booting, or one the provider or the gateway cannot
// answer for, is not idle.
func (p *schedulerPorts) Idle(b *core.Batch, inst *core.Instance) bool {
	driver, err := p.registry.Get(b.Provider)
	if err != nil {
		return false
	}
	if desc, err := driver.Describe(inst.Info.ID); err != nil || desc.State != cloud.StateRunning {
		return false
	}
	busy, err := p.dg.InstanceBusy(inst.Info.ID)
	return err == nil && !busy
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

// Archive sends the Oracle each batch's execution as Information summarizes
// it (core.TickView.Execution): one POST /statuses, then one POST
// /calibrations for the batches that have one.
func (p *schedulerPorts) Archive(bs []*core.Batch) {
	var items []CalibrationItem
	var archived []*core.Batch
	for i, st := range p.info.Statuses(batchIDs(bs)) {
		switch {
		case st.Error != "":
			bs[i].Err = itemErr(st.Error)
		case st.Status == nil:
			bs[i].Err = fmt.Errorf("service: information returned neither a status nor an error for %q", bs[i].ID)
		default:
			if base, actual, ok := st.Status.Execution(); ok {
				items = append(items, CalibrationItem{BatchID: bs[i].ID,
					CalibrationRecord: CalibrationRecord{EnvKey: bs[i].EnvKey, Base: base, Actual: actual}})
				archived = append(archived, bs[i])
			}
		}
	}
	for i, res := range p.oracle.Calibrations(items) {
		archived[i].Err = itemErr(res.Error)
	}
}

// SchedulerClient is the typed client of the Scheduler service: what a user
// of the QoS service calls (Fig 3).
type SchedulerClient struct{ Client }

// RegisterQoS registers a batch for QoS support and places its order.
func (c *SchedulerClient) RegisterQoS(req QoSRequest) error {
	return c.Post(req, nil, "qos")
}
