package emul

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
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

// Progress returns the primary server's view of a batch — exactly what the
// in-process simulator's monitor observes.
func (g *SimDG) Progress(batchID string) (middleware.Progress, error) {
	return g.primary.Progress(batchID), nil
}

// ProgressBatch returns the primary server's view of every named batch in
// one call (service.BatchProgressGateway): the aggregated poll that keeps
// the Scheduler's per-tick gateway traffic O(1) in the batch count.
func (g *SimDG) ProgressBatch(batchIDs []string) (map[string]middleware.Progress, error) {
	return middleware.ProgressAll(g.primary, batchIDs), nil
}

// WorkerURL implements service.DGGateway.
func (g *SimDG) WorkerURL() string { return g.workerURL }

// InstanceBusy reports whether the worker booted from an instance currently
// holds an assignment (service.WorkerStatusGateway).
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

// WireGateway is the server side of the DG gateway wire format: everything
// NewGatewayHandler needs to answer the Scheduler's HTTP adapter. SimDG
// implements it against the simulation; internal/loadgen implements it
// against a wall-clock fake for socket-level load runs.
type WireGateway interface {
	service.BatchProgressGateway
	service.WorkerStatusGateway
}

// maxWireBody caps request bodies on the gateway wire: the largest
// legitimate payload (a progress-batch query for thousands of batch IDs) is
// far below 1 MiB.
const maxWireBody = 1 << 20

// NewGatewayHandler serves the DG gateway wire format over HTTP for any
// WireGateway — the wire shape of the DGGateway interface, so the Scheduler
// module talks to the DG server exactly as it would to a remote BOINC/XWHEP
// status adapter:
//
//	GET  /progress/{batch}  → middleware.Progress
//	POST /progress-batch    {"ids": [...]} → {"progress": {id: Progress}}
//	GET  /busy/{instance}   → {"busy": bool}
//	GET  /worker-url        → {"worker_url": string}
func NewGatewayHandler(gw WireGateway) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/progress-batch", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpErr(w, http.StatusNotFound, fmt.Errorf("no route %s %s", r.Method, r.URL.Path))
			return
		}
		var req progressBatchRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxWireBody)).Decode(&req); err != nil {
			httpErr(w, http.StatusBadRequest, err)
			return
		}
		progress, err := gw.ProgressBatch(req.IDs)
		if err != nil {
			httpErr(w, http.StatusBadGateway, err)
			return
		}
		httpJSON(w, http.StatusOK, progressBatchReply{Progress: progress})
	})
	mux.HandleFunc("/progress/", func(w http.ResponseWriter, r *http.Request) {
		id := strings.TrimPrefix(r.URL.Path, "/progress/")
		if r.Method != http.MethodGet || id == "" {
			httpErr(w, http.StatusNotFound, fmt.Errorf("no route %s %s", r.Method, r.URL.Path))
			return
		}
		p, err := gw.Progress(id)
		if err != nil {
			httpErr(w, http.StatusBadGateway, err)
			return
		}
		httpJSON(w, http.StatusOK, p)
	})
	mux.HandleFunc("/busy/", func(w http.ResponseWriter, r *http.Request) {
		id := strings.TrimPrefix(r.URL.Path, "/busy/")
		if r.Method != http.MethodGet || id == "" {
			httpErr(w, http.StatusNotFound, fmt.Errorf("no route %s %s", r.Method, r.URL.Path))
			return
		}
		busy, err := gw.InstanceBusy(id)
		if err != nil {
			httpErr(w, http.StatusNotFound, err)
			return
		}
		httpJSON(w, http.StatusOK, map[string]bool{"busy": busy})
	})
	mux.HandleFunc("/worker-url", func(w http.ResponseWriter, r *http.Request) {
		httpJSON(w, http.StatusOK, map[string]string{"worker_url": gw.WorkerURL()})
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		httpErr(w, http.StatusNotFound, fmt.Errorf("no route %s %s", r.Method, r.URL.Path))
	})
	return mux
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

func httpJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck
}

func httpErr(w http.ResponseWriter, status int, err error) {
	httpJSON(w, status, map[string]string{"error": err.Error()})
}

// DGClient implements service.DGGateway (and the WorkerStatusGateway
// extension) against a gateway's HTTP endpoint — the Scheduler side of the
// wire.
type DGClient struct {
	BaseURL string
	HTTP    *http.Client

	mu        sync.Mutex
	workerURL string
}

// NewDGClient builds a gateway client for the given base URL. The client
// carries its own timeout: the Scheduler holds per-batch state while
// polling the DG, and a hung gateway connection must not wedge it.
func NewDGClient(baseURL string) *DGClient {
	return &DGClient{BaseURL: baseURL, HTTP: &http.Client{Timeout: 30 * time.Second}}
}

func (c *DGClient) get(path string, out any) error {
	resp, err := c.HTTP.Get(c.BaseURL + path)
	if err != nil {
		return err
	}
	return decodeReply(resp, path, out)
}

func (c *DGClient) post(path string, body, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := c.HTTP.Post(c.BaseURL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	return decodeReply(resp, path, out)
}

// decodeReply parses a gateway reply into out, turning an error payload into
// a Go error.
func decodeReply(resp *http.Response, path string, out any) error {
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		var e struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&e); err == nil && e.Error != "" {
			return fmt.Errorf("emul: %s", e.Error)
		}
		return fmt.Errorf("emul: HTTP %d on %s", resp.StatusCode, path)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Progress implements service.DGGateway.
func (c *DGClient) Progress(batchID string) (middleware.Progress, error) {
	var p middleware.Progress
	err := c.get("/progress/"+batchID, &p)
	return p, err
}

// ProgressBatch implements service.BatchProgressGateway: the progress of
// every named batch in one POST /progress-batch round-trip.
func (c *DGClient) ProgressBatch(batchIDs []string) (map[string]middleware.Progress, error) {
	var reply progressBatchReply
	if err := c.post("/progress-batch", progressBatchRequest{IDs: batchIDs}, &reply); err != nil {
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
	if err := c.get("/worker-url", &out); err != nil {
		return c.BaseURL
	}
	c.workerURL = out["worker_url"]
	return c.workerURL
}

// InstanceBusy implements service.WorkerStatusGateway.
func (c *DGClient) InstanceBusy(instanceID string) (bool, error) {
	var out map[string]bool
	err := c.get("/busy/"+instanceID, &out)
	return out["busy"], err
}
