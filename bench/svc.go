package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spequlos/internal/campaign"
	"spequlos/internal/cloud"
	"spequlos/internal/core"
	"spequlos/internal/emul"
	"spequlos/internal/middleware"
	"spequlos/internal/service"
	"spequlos/internal/stats"
)

const (
	// tickStep is the virtual time between two monitor ticks.
	tickStep = 300 * time.Second
	// ticksPerWave is how many ticks finalize every batch of a wave: the
	// slowest batch completes 7500 virtual seconds after its first poll.
	ticksPerWave = 26
	dgBatchSize  = 100
	orderCredits = 10.0
	deposit      = 1e9
)

// vclock is the virtual clock every clock-bearing module runs on, so a
// batch's whole life takes ticks, not hours.
type vclock struct{ ns atomic.Int64 }

func (c *vclock) Now() time.Time {
	return time.Unix(1_700_000_000, 0).Add(time.Duration(c.ns.Load()))
}

func (c *vclock) Advance(d time.Duration) { c.ns.Add(int64(d)) }

// fakeDG is the Desktop Grid behind the DG socket: a batch progresses
// linearly from its first poll to completion over a duration drawn from the
// seed and the batch id (6900, 7200 or 7500 virtual seconds), so a wave's
// batches trigger and finish on different ticks. Workers always report
// busy, so instances bill until the batch completes.
type fakeDG struct {
	clock     *vclock
	seed      int64
	workerURL string

	mu      sync.Mutex
	started map[string]time.Time
}

func (d *fakeDG) duration(id string) time.Duration {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", d.seed, id)
	return 7500*time.Second - time.Duration(h.Sum64()%3)*tickStep
}

func (d *fakeDG) progressLocked(id string) middleware.Progress {
	now := d.clock.Now()
	start, ok := d.started[id]
	if !ok {
		start = now
		d.started[id] = start
	}
	frac := math.Min(float64(now.Sub(start))/float64(d.duration(id)), 1)
	done := int(frac * dgBatchSize)
	return middleware.Progress{
		Size: dgBatchSize, Arrived: dgBatchSize, Completed: done,
		EverAssigned: dgBatchSize, Running: dgBatchSize - done,
	}
}

// Progress implements service.DGGateway.
func (d *fakeDG) Progress(id string) (middleware.Progress, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.progressLocked(id), nil
}

// ProgressBatch implements service.BatchProgressGateway.
func (d *fakeDG) ProgressBatch(ids []string) (map[string]middleware.Progress, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[string]middleware.Progress, len(ids))
	for _, id := range ids {
		out[id] = d.progressLocked(id)
	}
	return out, nil
}

// WorkerURL implements service.DGGateway.
func (d *fakeDG) WorkerURL() string { return d.workerURL }

// InstanceBusy implements service.WorkerStatusGateway.
func (d *fakeDG) InstanceBusy(string) (bool, error) { return true, nil }

// stack is the deployable service as internal/loadgen wires it: the four
// modules behind KeyManager.Gate on one loopback socket, talking to each
// other over HTTP with an unlimited service key, and the DG gateway wire
// format on a second socket.
type stack struct {
	keys    *service.KeyManager
	credits *core.CreditSystem
	clock   *vclock
	url     string
	dgURL   string
	// operator is the benchmark's own unlimited key (funding, ticks,
	// verification); the modules use svcKey, so its request count is the
	// module-to-module traffic alone.
	operator *http.Client
	opKey    service.APIKey
	svcKey   service.APIKey

	dgRequests atomic.Int64
	servers    []*httptest.Server
}

func bootStack(seed int64) (*stack, error) {
	s := &stack{clock: &vclock{}}
	dg := &fakeDG{clock: s.clock, seed: seed, started: map[string]time.Time{}}
	gw := emul.NewGatewayHandler(dg)
	dgSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.dgRequests.Add(1)
		gw.ServeHTTP(w, r)
	}))
	s.servers = append(s.servers, dgSrv)
	s.dgURL, dg.workerURL = dgSrv.URL, dgSrv.URL

	strategy, err := core.StrategyByLabel("9C-C-R")
	if err != nil {
		return nil, err
	}
	// Rate limits stay on the request path but are never reached, and the
	// per-tier admission caps are lifted: a wave's batches trigger within
	// three ticks of each other, and a capped batch would finish without
	// ever holding an instance.
	policy := core.DefaultTierPolicy()
	for t, spec := range policy.Tiers {
		spec.MaxActive = 0
		policy.Tiers[t] = spec
	}
	s.keys = service.NewKeyManager(service.LimitsFromPolicy(policy, 1e9))
	s.svcKey = service.APIKey{Key: "sk-service", User: "spequlosd", Tier: core.TierEnterprise, Unlimited: true}
	s.opKey = service.APIKey{Key: "sk-operator", User: "operator", Tier: core.TierEnterprise, Unlimited: true}
	s.keys.Add(s.svcKey)
	s.keys.Add(s.opKey)
	s.operator = service.KeyedClient(s.opKey.Key)

	s.credits = core.NewCreditSystem()
	info := service.NewInformationService(core.NewInformation())
	info.SetClock(s.clock.Now)
	driver := cloud.NewMockDriver("mock", 50*time.Millisecond, 0.34)
	driver.SetClock(s.clock.Now)

	// The mux needs the services and their clients need the listening URL,
	// so the server starts on a mux that is filled in below.
	mux := http.NewServeMux()
	srv := httptest.NewServer(s.keys.Gate(mux))
	s.servers = append(s.servers, srv)
	s.url = srv.URL

	module := service.KeyedClient(s.svcKey.Key)
	infoClient := service.NewInformationClient(s.url + "/information")
	infoClient.HTTP = module
	creditClient := service.NewCreditClient(s.url + "/credit")
	creditClient.HTTP = module
	oracleClient := service.NewOracleClient(s.url + "/oracle")
	oracleClient.HTTP = module
	oracle := service.NewOracleService(core.NewOracle(strategy), infoClient)
	sched := service.NewSchedulerService(infoClient, creditClient, oracleClient,
		cloud.NewRegistry(driver), emul.NewDGClient(s.dgURL))
	sched.TierPolicy = policy
	sched.Now = s.clock.Now
	for prefix, h := range map[string]http.Handler{
		"/information": info, "/credit": service.NewCreditService(s.credits), "/oracle": oracle, "/scheduler": sched,
	} {
		mux.Handle(prefix+"/", http.StripPrefix(prefix, h))
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	return s, nil
}

func (s *stack) Close() {
	for _, srv := range s.servers {
		srv.Close()
	}
}

// call sends one request and drains the reply. It returns the status code
// (0 on a transport error) and the reply body.
func call(c *http.Client, method, url, body string) (int, []byte) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil
	}
	return resp.StatusCode, buf
}

// tenant is one load client: its own enterprise key and funded account.
type tenant struct {
	key  service.APIKey
	http *http.Client
}

func (s *stack) newTenant(user string) (tenant, error) {
	t := tenant{key: s.keys.Issue(user, core.TierEnterprise)}
	t.http = service.KeyedClient(t.key.Key)
	body := fmt.Sprintf(`{"user":%q,"credits":%g}`, user, deposit)
	if code, _ := call(s.operator, http.MethodPost, s.url+"/credit/deposit", body); code != http.StatusOK {
		return t, fmt.Errorf("funding %s: HTTP %d", user, code)
	}
	return t, nil
}

// order places one QoS order and returns the status code.
func (s *stack) order(t tenant, id string) int {
	body := fmt.Sprintf(`{"user":%q,"batch_id":%q,"env_key":"bench","size":%d,"credits":%g,"tier":"enterprise","provider":"mock","image":"img"}`,
		t.key.User, id, dgBatchSize, orderCredits)
	code, _ := call(t.http, http.MethodPost, s.url+"/scheduler/qos", body)
	return code
}

// tick advances the virtual clock one step and runs one monitor iteration.
func (s *stack) tick() int {
	s.clock.Advance(tickStep)
	code, _ := call(s.operator, http.MethodPost, s.url+"/scheduler/step", "")
	return code
}

// gateCheck verifies the gate's books: nothing refused, and every admitted
// request accounted to the tenants, the operator or the modules' own key.
func (s *stack) gateCheck(c *checks, tenants []tenant) service.GateMetrics {
	g := s.keys.GateStats()
	presented := s.keys.Metrics(s.opKey.Key).Requests + s.keys.Metrics(s.svcKey.Key).Requests
	for _, t := range tenants {
		presented += s.keys.Metrics(t.key.Key).Requests
	}
	c.attempted++
	if g.Throttled != 0 || g.Unauthorized != 0 || g.Allowed != presented {
		c.fail("gate: %d allowed of %d presented, %d throttled, %d unauthorized",
			g.Allowed, presented, g.Throttled, g.Unauthorized)
	}
	return g
}

// ---- svc_poll -----------------------------------------------------------

const (
	opStatus = iota
	opCredit
	opProgress
)

var pollOpSpans = [...]string{"service.status", "service.credit_account", "emul.progress_batch"}

// poller is one closed-loop client of the read path: 60% batch status, 25%
// credit account, 15% aggregated progress of 8 batches on the DG socket.
type poller struct {
	t   tenant
	dgc *emul.DGClient
	ids []string
	rng *rand.Rand

	// record keeps every request's start, latency and kind (the traced
	// pass); without it a poller only counts, so the untraced pass's memory
	// does not grow with the number of requests.
	record bool
	at, ms []float64 // per request: seconds since the phase began, latency
	op     []uint8
	ok     int
	failed int
	gated  int // requests that went through the gate
}

// run polls until stop reports true (checked between requests).
func (p *poller) run(s *stack, began time.Time, stop func(n int) bool) {
	for n := 0; !stop(n); n++ {
		op, draw := opStatus, p.rng.Intn(100)
		if draw >= 85 {
			op = opProgress
		} else if draw >= 60 {
			op = opCredit
		}
		start := time.Now()
		good := false
		switch op {
		case opStatus:
			code, body := call(p.t.http, http.MethodGet, s.url+"/scheduler/qos/"+p.ids[p.rng.Intn(len(p.ids))], "")
			good = code == http.StatusOK && len(body) > 0
			p.gated++
		case opCredit:
			code, body := call(p.t.http, http.MethodGet, s.url+"/credit/accounts/"+p.t.key.User, "")
			good = code == http.StatusOK && len(body) > 0
			p.gated++
		case opProgress:
			at := p.rng.Intn(len(p.ids) - 7)
			reply, err := p.dgc.ProgressBatch(p.ids[at : at+8])
			good = err == nil && len(reply) == 8
		}
		lat := time.Since(start)
		if !good {
			p.failed++
			continue
		}
		p.ok++
		if p.record {
			p.at = append(p.at, start.Sub(began).Seconds())
			p.ms = append(p.ms, lat.Seconds()*1e3)
			p.op = append(p.op, uint8(op))
		}
	}
}

// pollSetup boots a stack with `batches` registered batches split over
// nproc tenants and ticked five times, and returns one poller per tenant.
func pollSetup(seed int64, batches int) (*stack, []*poller, error) {
	s, err := bootStack(seed)
	if err != nil {
		return nil, nil, err
	}
	clients := runtime.GOMAXPROCS(0) // the load generator never runs more than nproc
	pollers := make([]*poller, clients)
	for i := range pollers {
		t, err := s.newTenant(fmt.Sprintf("u%03d", i))
		if err != nil {
			s.Close()
			return nil, nil, err
		}
		p := &poller{t: t, dgc: emul.NewDGClient(s.dgURL), rng: rand.New(rand.NewSource(seed*7919 + int64(i)))}
		for b := 0; b < batches/clients; b++ {
			id := fmt.Sprintf("p-%03d-%04d", i, b)
			if code := s.order(t, id); code != http.StatusCreated {
				s.Close()
				return nil, nil, fmt.Errorf("pre-registering %s: HTTP %d", id, code)
			}
			p.ids = append(p.ids, id)
		}
		pollers[i] = p
	}
	for k := 0; k < 5; k++ {
		if code := s.tick(); code != http.StatusOK {
			s.Close()
			return nil, nil, fmt.Errorf("set-up tick %d: HTTP %d", k, code)
		}
	}
	return s, pollers, nil
}

// pollPhase runs every poller concurrently until stop and waits for them.
func pollPhase(s *stack, pollers []*poller, stop func(n int) bool) time.Duration {
	began := time.Now()
	var wg sync.WaitGroup
	for _, p := range pollers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.run(s, began, stop)
		}()
	}
	wg.Wait()
	return time.Since(began)
}

// setUpSeveralTimes runs setUp three times, closing all but the last: one
// sample of a short set-up is noisy. It returns the time to count out of
// setup_s so that the three count as their median.
func setUpSeveralTimes(setUp func() (*stack, error)) (s *stack, excess float64, err error) {
	var took []float64
	var sum float64
	for i := 0; i < 3; i++ {
		if s != nil {
			s.Close()
		}
		start := time.Now()
		if s, err = setUp(); err != nil {
			return nil, 0, err
		}
		took = append(took, time.Since(start).Seconds())
		sum += took[i]
	}
	return s, sum - median(took), nil
}

func runPoll(cfg runConfig) (outcome, error) {
	var out outcome
	batches, warm := 200, 20000
	if cfg.tiny {
		batches, warm = 20, 200
	}
	var pollers []*poller
	s, excess, err := setUpSeveralTimes(func() (*stack, error) {
		s, ps, err := pollSetup(cfg.seed, batches)
		pollers = ps
		return s, err
	})
	if err != nil {
		return out, err
	}
	defer s.Close()
	// Warm-up is a fixed number of requests, so set-up time is all work.
	pollPhase(s, pollers, func(n int) bool { return n >= warm/len(pollers) })
	setup := time.Since(processStart).Seconds() - excess
	for _, p := range pollers {
		p.reset()
	}

	// The timed phase is a row of one-second units, so that a stall in one
	// cannot carry the run and the calibration kernel can run in between.
	allowed0 := s.keys.GateStats().Allowed
	out.samples = map[string][]float64{}
	var cal calibrator
	done := 0
	for timed := time.Now(); time.Since(timed).Seconds() < cfg.seconds; {
		cal.tick()
		unit := time.Duration(math.Min(cfg.seconds, 1) * float64(time.Second))
		cpu0, deadline := campaign.ProcessCPUSeconds(), time.Now().Add(unit)
		took := pollPhase(s, pollers, func(int) bool { return !time.Now().Before(deadline) })
		cpu := campaign.ProcessCPUSeconds() - cpu0
		ok := 0
		for _, p := range pollers {
			ok += p.ok
		}
		if ok == done {
			return out, fmt.Errorf("svc_poll: no successful request in a unit")
		}
		per100k := 1e5 / float64(ok-done)
		out.sample("wall_s", took.Seconds()*per100k)
		out.sample("cpu_s", cpu*per100k)
		done = ok
	}
	allowed := s.keys.GateStats().Allowed - allowed0
	ok, gated := countPolled(&out.checks, pollers)
	out.attempted++
	if allowed != int64(gated) {
		out.fail("gate admitted %d requests in the timed phase, clients sent %d", allowed, gated)
	}
	s.verifyPolled(&out.checks, pollers)
	s.gateCheck(&out.checks, tenantsOf(pollers))

	out.finish(setup, &cal)
	out.notes = append(out.notes, fmt.Sprintf("%d clients, %d successful requests in %d units: %.0f req/s, %.4f CPU-ms per request (as measured)",
		len(pollers), ok, len(out.samples["wall_s"]), 1e5/fasterHalf(out.samples["wall_s"]), fasterHalf(out.samples["cpu_s"])/100))
	return out, nil
}

func tenantsOf(pollers []*poller) []tenant {
	ts := make([]tenant, len(pollers))
	for i, p := range pollers {
		ts[i] = p.t
	}
	return ts
}

// reset forgets the requests recorded so far.
func (p *poller) reset() {
	p.at, p.ms, p.op, p.ok, p.failed, p.gated = nil, nil, nil, 0, 0, 0
}

// countPolled adds the pollers' requests to the checks and returns how many
// succeeded and how many of all went through the gate.
func countPolled(c *checks, pollers []*poller) (ok, gated int) {
	for _, p := range pollers {
		ok += p.ok
		gated += p.gated
		c.attempted += p.ok + p.failed
		for i := 0; i < p.failed; i++ {
			c.fail("a poll request of %s failed", p.t.key.User)
		}
	}
	return ok, gated
}

// verifyPolled reads every pre-registered batch back: known to the
// Scheduler, not finalized, not triggered.
func (s *stack) verifyPolled(c *checks, pollers []*poller) {
	for _, p := range pollers {
		for _, id := range p.ids {
			c.attempted++
			code, body := call(s.operator, http.MethodGet, s.url+"/scheduler/qos/"+id, "")
			var st service.QoSStatus
			if code != http.StatusOK || json.Unmarshal(body, &st) != nil || st.BatchID != id || st.Finalized || st.TriggeredAt >= 0 {
				c.fail("status of %s: HTTP %d %s", id, code, body)
			}
		}
	}
}

func runPollTraced(cfg runConfig) (outcome, error) {
	var out outcome
	batches, n := 200, 40000
	if cfg.tiny {
		batches, n = 20, 200
	}
	s, pollers, err := pollSetup(cfg.seed, batches)
	if err != nil {
		return out, err
	}
	defer s.Close()
	pollPhase(s, pollers, func(i int) bool { return i >= n/len(pollers) })
	for _, p := range pollers {
		p.reset()
		p.record = true
	}
	_, body := call(s.operator, http.MethodGet, s.url+"/scheduler/qos/"+pollers[0].ids[0], "")

	// The pollers time every request anyway, so the spans are built from
	// their records afterwards and the traced phase costs nothing extra.
	rec := newRecorder(repName("svc_poll", cfg.seed, 1))
	dg0 := s.dgRequests.Load()
	var cal calibrator
	cal.tick()
	root := rec.start(0, "bench.rep")
	began := time.Now()
	took := pollPhase(s, pollers, func(i int) bool { return i >= n/len(pollers) })
	rec.end(root)
	cal.tick()
	for _, p := range pollers {
		for i, at := range p.at {
			start := began.Add(time.Duration(at * float64(time.Second)))
			rec.add(root, pollOpSpans[p.op[i]], start, start.Add(time.Duration(p.ms[i]*float64(time.Millisecond))))
		}
	}

	v := map[string]float64{"service.status_bytes": float64(len(body))}
	out.values = v
	byOp := map[uint8][]float64{}
	ok, _ := countPolled(&out.checks, pollers)
	if ok == 0 {
		return out, fmt.Errorf("svc_poll: no successful request")
	}
	for _, p := range pollers {
		for i, ms := range p.ms {
			byOp[p.op[i]] = append(byOp[p.op[i]], ms*1e3)
		}
	}
	v["service.status_us"] = median(byOp[opStatus])
	v["service.credit_account_us"] = median(byOp[opCredit])
	v["service.progress_batch_us"] = median(byOp[opProgress])
	var all []float64
	for _, p := range pollers {
		all = append(all, p.ms...)
	}
	v["service.poll_p99_ms"] = stats.NearestRank(all, 0.99)
	v["service.req_per_s"] = float64(ok) / took.Seconds()
	v["emul.gateway_requests"] = float64(s.dgRequests.Load() - dg0)
	v["bench.traced_wall_s"] = took.Seconds() * 1e5 / float64(ok) * cal.scale() // wall_s's unit, in reference seconds
	v["bench.attributed_ratio"] = 1 - rec.selfSeconds()["bench.rep"]/took.Seconds()
	g := s.gateCheck(&out.checks, tenantsOf(pollers))
	v["service.throttled"], v["service.unauthorized"] = float64(g.Throttled), float64(g.Unauthorized)
	microBenchmarks(v, cfg.tiny)
	return out, rec.writeFile(filepath.Join(cfg.out, "trace-svc_poll.json"))
}

// ---- svc_lifecycle ------------------------------------------------------

// waveStats is one wave: its orders, then its ticks.
type waveStats struct {
	wall, cpu       float64
	orderMS, tickMS []float64
	gatePerTick     []float64
	ids             []string
}

// wave places `batches` orders, then ticks until every one of them has been
// triggered, billed, terminated, paid and finalized.
func (s *stack) wave(c *checks, t tenant, w, batches int, rec *recorder) waveStats {
	ws := waveStats{}
	start, cpu0 := time.Now(), campaign.ProcessCPUSeconds()
	root := rec.start(0, "bench.rep")
	for i := 0; i < batches; i++ {
		id := fmt.Sprintf("w%03d-b%03d", w, i)
		c.attempted++
		span := rec.start(root, "service.order")
		t0 := time.Now()
		code := s.order(t, id)
		ws.orderMS = append(ws.orderMS, time.Since(t0).Seconds()*1e3)
		rec.end(span)
		if code != http.StatusCreated {
			c.fail("order %s: HTTP %d", id, code)
		}
		ws.ids = append(ws.ids, id)
	}
	for k := 0; k < ticksPerWave; k++ {
		c.attempted++
		allowed0 := s.keys.GateStats().Allowed
		span := rec.start(root, "service.tick")
		t0 := time.Now()
		code := s.tick()
		ws.tickMS = append(ws.tickMS, time.Since(t0).Seconds()*1e3)
		rec.end(span)
		ws.gatePerTick = append(ws.gatePerTick, float64(s.keys.GateStats().Allowed-allowed0))
		if code != http.StatusOK {
			c.fail("tick %d of wave %d: HTTP %d", k, w, code)
		}
	}
	rec.end(root)
	ws.wall, ws.cpu = time.Since(start).Seconds(), campaign.ProcessCPUSeconds()-cpu0
	return ws
}

// verifyWaves reads every ordered batch back — finalized, triggered, every
// instance terminated — and checks that no credit was lost or invented.
func (s *stack) verifyWaves(c *checks, t tenant, ids []string) {
	for _, id := range ids {
		c.attempted++
		code, body := call(s.operator, http.MethodGet, s.url+"/scheduler/qos/"+id, "")
		var st service.QoSStatus
		if code != http.StatusOK || json.Unmarshal(body, &st) != nil {
			c.fail("status of %s: HTTP %d", id, code)
			continue
		}
		live := 0
		for _, inst := range st.Instances {
			if inst.State != cloud.StateTerminated {
				live++
			}
		}
		if !st.Finalized || st.TriggeredAt < 0 || len(st.Instances) == 0 || live > 0 {
			c.fail("batch %s: finalized %v, triggered_at %g, %d instances, %d live",
				id, st.Finalized, st.TriggeredAt, len(st.Instances), live)
		}
	}
	c.attempted++
	a := s.credits.AccountOf(t.key.User)
	if math.Abs(a.Balance+a.Spent-deposit) > 1e-3 {
		c.fail("credits not conserved: deposited %g, balance %g + spent %g", deposit, a.Balance, a.Spent)
	}
}

func lifecycleSetup(seed int64) (*stack, tenant, error) {
	s, err := bootStack(seed)
	if err != nil {
		return nil, tenant{}, err
	}
	t, err := s.newTenant("tenant")
	if err != nil {
		s.Close()
	}
	return s, t, err
}

func runLifecycle(cfg runConfig) (outcome, error) {
	var out outcome
	// The number of waves is fixed by -seconds (a wave takes about 1.6 s),
	// not by the clock: the stack keeps every batch it ever served, so peak
	// memory would otherwise depend on how fast the machine happened to be.
	batches, waves := 200, max(3, int(cfg.seconds/1.6))
	if cfg.tiny {
		batches, waves = 10, 1
	}
	var t tenant
	s, excess, err := setUpSeveralTimes(func() (*stack, error) {
		s, tt, err := lifecycleSetup(cfg.seed)
		t = tt
		return s, err
	})
	if err != nil {
		return out, err
	}
	defer s.Close()
	warm := s.wave(&out.checks, t, 0, batches, nil)
	ids := warm.ids
	setup := time.Since(processStart).Seconds() - excess

	out.samples = map[string][]float64{}
	var orderMS, tickMS []float64
	var cal calibrator
	for w := 1; w <= waves; w++ {
		cal.tick()
		ws := s.wave(&out.checks, t, w, batches, nil)
		out.sample("wall_s", ws.wall)
		out.sample("cpu_s", ws.cpu)
		orderMS, tickMS = append(orderMS, ws.orderMS...), append(tickMS, ws.tickMS...)
		ids = append(ids, ws.ids...)
	}
	s.verifyWaves(&out.checks, t, ids)
	s.gateCheck(&out.checks, []tenant{t})

	out.finish(setup, &cal)
	out.notes = append(out.notes, fmt.Sprintf("%d timed waves of %d batches: %.1f batches/s, tick p50 %.1f ms p95 %.1f ms (n=%d), order p50 %.3f ms p95 %.3f ms (n=%d) (all as measured)",
		len(out.samples["wall_s"]), batches, float64(batches)/fasterHalf(out.samples["wall_s"]), stats.NearestRank(tickMS, 0.50), stats.NearestRank(tickMS, 0.95), len(tickMS),
		stats.NearestRank(orderMS, 0.50), stats.NearestRank(orderMS, 0.95), len(orderMS)))
	return out, nil
}

func runLifecycleTraced(cfg runConfig) (outcome, error) {
	var out outcome
	batches, waves := 200, 3
	if cfg.tiny {
		batches, waves = 10, 1
	}
	s, t, err := lifecycleSetup(cfg.seed)
	if err != nil {
		return out, err
	}
	defer s.Close()
	warm := s.wave(&out.checks, t, 0, batches, nil)
	ids := warm.ids
	_, body := call(s.operator, http.MethodGet, s.url+"/scheduler/qos/"+ids[0], "")

	rec := newRecorder(repName("svc_lifecycle", cfg.seed, 1))
	dg0 := s.dgRequests.Load()
	var wall, orderUS, tickMS, gate []float64
	var cal calibrator
	for w := 1; w <= waves; w++ {
		cal.tick()
		ws := s.wave(&out.checks, t, w, batches, rec)
		wall = append(wall, ws.wall)
		for _, ms := range ws.orderMS {
			orderUS = append(orderUS, ms*1e3)
		}
		tickMS, gate = append(tickMS, ws.tickMS...), append(gate, ws.gatePerTick...)
		ids = append(ids, ws.ids...)
	}
	v := map[string]float64{"service.status_bytes": float64(len(body))}
	out.values = v
	v["emul.gateway_requests"] = float64(s.dgRequests.Load() - dg0)
	s.verifyWaves(&out.checks, t, ids)
	g := s.gateCheck(&out.checks, []tenant{t})
	v["service.throttled"], v["service.unauthorized"] = float64(g.Throttled), float64(g.Unauthorized)

	v["service.order_us"] = median(orderUS)
	v["service.order_p95_ms"] = stats.NearestRank(orderUS, 0.95) / 1e3
	v["service.batches_per_s"] = float64(batches) / median(wall)
	v["service.tick_p50_ms"] = stats.NearestRank(tickMS, 0.50)
	v["service.tick_p95_ms"] = stats.NearestRank(tickMS, 0.95)
	v["service.tick_us_per_batch"] = stats.NearestRank(tickMS, 0.50) * 1e3 / float64(batches)
	v["service.gate_requests_per_tick"] = median(gate)
	busy, self := rec.busySeconds(), rec.selfSeconds()
	v["bench.traced_wall_s"] = busy["bench.rep"] / float64(waves) * cal.scale() // reference seconds, as wall_s
	v["bench.attributed_ratio"] = 1 - self["bench.rep"]/busy["bench.rep"]
	microBenchmarks(v, cfg.tiny)
	return out, rec.writeFile(filepath.Join(cfg.out, "trace-svc_lifecycle.json"))
}
