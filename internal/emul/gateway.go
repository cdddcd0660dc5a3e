package emul

import (
	"fmt"
	"net/http"
	"sync"
	"time"

	"spequlos/internal/cloud"
	"spequlos/internal/core"
	"spequlos/internal/middleware"
	"spequlos/internal/service"
	"spequlos/internal/sim"
)

// ProviderName is the provider registered for emulated cloud instances.
const ProviderName = "emul"

// SimDG is a simulated Desktop Grid server wrapped as a SpeQuloS gateway: it
// answers the Scheduler's progress polls from a middleware simulation and
// turns cloud-driver launches into simulated cloud workers joining that
// simulation. All methods must run on the simulation goroutine — the
// Scheduler only calls them from inside engine ticks, and the HTTP handler
// serializes with the engine through the request/response round trip.
type SimDG struct {
	eng     *sim.Engine
	primary middleware.Server
	// deploy is the in-process simulator's deployment switch (§3.5) over its
	// simulated cloud: a launch here starts its worker exactly as
	// core.Service does.
	deploy core.CloudDeployment

	workerURL string

	seq       int
	instances map[string]*core.Instance
}

// NewSimDG wraps a middleware simulation as a DG gateway.
func NewSimDG(eng *sim.Engine, primary middleware.Server, deploy core.CloudDeployment) *SimDG {
	return &SimDG{
		eng: eng, primary: primary, deploy: deploy,
		instances: map[string]*core.Instance{},
	}
}

// SetWorkerURL records the endpoint cloud workers are told to connect to
// (the gateway's own HTTP address once it is listening).
func (g *SimDG) SetWorkerURL(url string) { g.workerURL = url }

// ProgressBatch implements service.DGGateway: the primary server's view of
// every named batch — exactly what the in-process simulator's monitor
// observes.
func (g *SimDG) ProgressBatch(batchIDs []string) (map[string]middleware.Progress, error) {
	return middleware.ProgressAll(g.primary, batchIDs), nil
}

// WorkerURL implements service.DGGateway.
func (g *SimDG) WorkerURL() string { return g.workerURL }

// InstanceBusy implements service.DGGateway: whether the worker booted from
// an instance currently holds an assignment.
func (g *SimDG) InstanceBusy(instanceID string) (bool, error) {
	si, ok := g.instances[instanceID]
	if !ok {
		return false, fmt.Errorf("emul: unknown instance %q", instanceID)
	}
	return si.Sim.Busy(), nil
}

// Launch implements cloud.Driver: it starts one simulated cloud worker for the
// request's batch under the configured deployment strategy.
func (g *SimDG) Launch(req cloud.LaunchRequest) (cloud.InstanceInfo, error) {
	if req.BatchID == "" {
		return cloud.InstanceInfo{}, fmt.Errorf("emul: launch request needs a batch id")
	}
	inst := g.deploy.Start(g.primary, req.BatchID)
	g.seq++
	id := fmt.Sprintf("%s-%06d", ProviderName, g.seq)
	si := &core.Instance{
		Info: cloud.InstanceInfo{
			ID: id, Provider: ProviderName, State: cloud.StatePending,
			BatchID: req.BatchID, DGServer: g.workerURL, Image: req.Image,
			StartedAt: virtualTime(g.eng.Now()),
		},
		Sim: inst,
	}
	g.instances[id] = si
	return si.Info, nil
}

// Terminate implements cloud.Driver: it stops an instance's simulated worker.
func (g *SimDG) Terminate(id string) error {
	si, ok := g.instances[id]
	if !ok {
		return fmt.Errorf("emul: unknown instance %q", id)
	}
	g.deploy.Cloud.Stop(si.Sim)
	si.Info.State = cloud.StateTerminated
	return nil
}

// Describe implements cloud.Driver: the instance's refreshed descriptor.
func (g *SimDG) Describe(id string) (cloud.InstanceInfo, error) {
	si, ok := g.instances[id]
	if !ok {
		return cloud.InstanceInfo{}, fmt.Errorf("emul: unknown instance %q", id)
	}
	return g.refresh(si), nil
}

// refresh derives the driver-visible lifecycle state from the simulated
// instance: pending until the worker connects, running until stopped.
func (g *SimDG) refresh(si *core.Instance) cloud.InstanceInfo {
	switch {
	case !si.Sim.Running():
		si.Info.State = cloud.StateTerminated
	case si.Sim.Booted():
		si.Info.State = cloud.StateRunning
	default:
		si.Info.State = cloud.StatePending
	}
	return si.Info
}

// virtualTime maps the simulation's virtual seconds onto the wall-clock epoch
// every clock of an emulated deployment reads.
func virtualTime(sec float64) time.Time {
	return time.Unix(0, 0).UTC().Add(time.Duration(sec * float64(time.Second)))
}

// Name implements cloud.Driver: the gateway is also the emulated provider, and
// launching an instance through it starts a simulated cloud worker exactly as
// the in-process simulator does.
func (g *SimDG) Name() string { return ProviderName }

// List implements cloud.Driver.
func (g *SimDG) List() []cloud.InstanceInfo {
	var out []cloud.InstanceInfo
	for i := 1; i <= g.seq; i++ {
		id := fmt.Sprintf("%s-%06d", ProviderName, i)
		if si, ok := g.instances[id]; ok {
			if info := g.refresh(si); info.State != cloud.StateTerminated {
				out = append(out, info)
			}
		}
	}
	return out
}

// NewGatewayHandler serves a service.DGGateway over HTTP — the wire shape of
// the interface, so the Scheduler module talks to the DG server exactly as it
// would to a remote BOINC/XWHEP status adapter, on the route table and
// endpoint the four modules use:
//
//	POST /progress-batch    {"ids": [...]} → {"progress": {id: Progress}}
//	GET  /busy/{instance}   → {"busy": bool}
//	GET  /worker-url        → {"worker_url": string}
func NewGatewayHandler(gw service.DGGateway) http.Handler {
	rt := &service.Routes{}
	rt.Handle("POST /progress-batch", service.Endpoint(http.StatusOK, func(_ *http.Request, req progressBatchRequest) (progressBatchReply, error) {
		progress, err := gw.ProgressBatch(req.IDs)
		return progressBatchReply{Progress: progress}, service.Fail(http.StatusBadGateway, err)
	}))
	rt.Handle("GET /busy/{instance}", service.EndpointNoBody(http.StatusOK, func(r *http.Request) (map[string]bool, error) {
		busy, err := gw.InstanceBusy(r.PathValue("instance"))
		return map[string]bool{"busy": busy}, service.Fail(http.StatusNotFound, err)
	}))
	rt.Handle("GET /worker-url", service.EndpointNoBody(http.StatusOK, func(*http.Request) (map[string]string, error) {
		return map[string]string{"worker_url": gw.WorkerURL()}, nil
	}))
	return rt
}

// Handler exposes the gateway over HTTP (see NewGatewayHandler for the
// routes).
func (g *SimDG) Handler() http.Handler { return NewGatewayHandler(g) }

// progressBatchRequest/Reply are the wire shape of the aggregated progress
// query (POST /progress-batch).
type progressBatchRequest struct {
	IDs []string `json:"ids"`
}

type progressBatchReply struct {
	Progress map[string]middleware.Progress `json:"progress"`
}

// DGClient implements service.DGGateway against a gateway's HTTP endpoint —
// the Scheduler side of the wire.
type DGClient struct {
	service.Client

	mu        sync.Mutex
	workerURL string
}

// NewDGClient builds a gateway client for the given base URL. The client
// carries its own timeout: the Scheduler holds per-batch state while
// polling the DG, and a hung gateway connection must not wedge it.
func NewDGClient(baseURL string) *DGClient {
	return &DGClient{Client: service.Client{BaseURL: baseURL, HTTP: &http.Client{Timeout: 30 * time.Second}}}
}

// ProgressBatch implements service.DGGateway: the progress of every named
// batch in one POST /progress-batch round-trip.
func (c *DGClient) ProgressBatch(batchIDs []string) (map[string]middleware.Progress, error) {
	var reply progressBatchReply
	if err := c.Post(progressBatchRequest{IDs: batchIDs}, &reply, "progress-batch"); err != nil {
		return nil, err
	}
	return reply.Progress, nil
}

// WorkerURL implements service.DGGateway; the answer is cached after the
// first fetch.
func (c *DGClient) WorkerURL() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.workerURL != "" {
		return c.workerURL
	}
	var out map[string]string
	if err := c.Get(&out, "worker-url"); err != nil {
		return c.BaseURL
	}
	c.workerURL = out["worker_url"]
	return c.workerURL
}

// InstanceBusy implements service.DGGateway.
func (c *DGClient) InstanceBusy(instanceID string) (bool, error) {
	var out map[string]bool
	err := c.Get(&out, "busy", instanceID)
	return out["busy"], err
}

// WallDG is a stand-in Desktop Grid on the wall clock: a batch of 100 tasks
// progresses linearly from its first poll to completion over its duration,
// and every worker always holds an assignment, so instances run until the
// order exhausts or the batch completes. It is spequlosd's demo DG and the
// one internal/service's TestStackSurvivesTieredLoad drives the stack over,
// enough to exercise the full QoS loop without middleware.
type WallDG struct {
	duration  time.Duration
	workerURL string

	mu      sync.Mutex
	started map[string]time.Time
}

// NewWallDG returns a wall-clock DG whose batches take duration and whose
// workers are told to connect to workerURL.
func NewWallDG(duration time.Duration, workerURL string) *WallDG {
	return &WallDG{duration: duration, workerURL: workerURL, started: map[string]time.Time{}}
}

// ProgressBatch implements service.DGGateway.
func (d *WallDG) ProgressBatch(batchIDs []string) (map[string]middleware.Progress, error) {
	const size = 100
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[string]middleware.Progress, len(batchIDs))
	for _, id := range batchIDs {
		start, ok := d.started[id]
		if !ok {
			start = time.Now()
			d.started[id] = start
		}
		done := int(min(float64(time.Since(start))/float64(d.duration), 1) * size)
		out[id] = middleware.Progress{Size: size, Arrived: size, Completed: done, EverAssigned: size, Running: size - done}
	}
	return out, nil
}

// InstanceBusy implements service.DGGateway: always busy.
func (d *WallDG) InstanceBusy(string) (bool, error) { return true, nil }

// WorkerURL implements service.DGGateway.
func (d *WallDG) WorkerURL() string { return d.workerURL }
