// Package loadgen is the socket-level load harness for the deployable
// SpeQuloS stack: it boots all four service modules behind the auth gateway
// on a real loopback TCP socket, a Desktop-Grid gateway speaking the emul
// wire format on a second socket, and drives them with concurrent tiered
// clients at a fixed request mix — QoS orders, status polls,
// progress-batch queries, credit operations — while the Scheduler's monitor
// loop ticks over the same socket. It reports p50/p95/p99 request latency
// per operation, the unexpected-error rate, per-tier 429 throttling, and
// Scheduler tick overrun. The conformance harness (internal/emul) proves
// the stack DECIDES correctly; this package checks that it SURVIVES
// production churn: stress-scale concurrency, auth, rate limiting and
// billing all on at once.
package loadgen

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spequlos/internal/cloud"
	"spequlos/internal/core"
	"spequlos/internal/emul"
	"spequlos/internal/service"
)

// The request mix every load client draws from, in percent: mostly
// monitoring reads, a steady trickle of new QoS orders. Status is GET
// /scheduler/qos/{id}, progress POST /progress-batch on the DG socket, credit
// GET /credit/accounts/{user}, and the rest POST /scheduler/qos (new QoS
// batches).
const (
	mixStatus   = 55
	mixProgress = 20
	mixCredit   = 15
)

// seed makes the request schedule reproducible: client i draws from seed +
// 7919·i.
const seed = 1

// Config parameterizes one load run.
type Config struct {
	// Profile names the run in reports ("smoke", "stress", ...).
	Profile string
	// Clients is the number of concurrent load clients. They are assigned
	// tiers round-robin as enterprise, premium, free, free — the 3/5/12-ish
	// shape of the maas-billing stress demo.
	Clients int
	// Duration is how long clients generate load.
	Duration time.Duration
	// TickPeriod is the Scheduler monitor period; ticks run over the socket
	// (POST /scheduler/step) and a tick slower than the period is an
	// overrun.
	TickPeriod time.Duration
	// BatchDuration is how long a DG batch takes to complete (wall time).
	BatchDuration time.Duration
	// MaxOrders caps QoS orders across the run (0 = unlimited). Clients
	// fall back to status polls once the cap is reached.
	MaxOrders int
	// RatePerSec is the gateway's total request budget, shared across tiers
	// by TierPolicy weight (see service.LimitsFromPolicy).
	RatePerSec float64
	// Pace is the per-client think time between requests for enterprise and
	// premium clients. Free clients run unpaced — the deliberate burst that
	// must draw 429s without touching the paid tiers.
	Pace time.Duration
	// Verbose logs per-second progress to stderr.
	Verbose bool
}

// Smoke is the CI-sized run: a few seconds of mixed load, small enough for
// a shared single-core runner, still exercising every request class, all
// three tiers, throttling and the full QoS loop.
func Smoke() Config {
	return Config{
		Profile: "smoke", Clients: 8, Duration: 3 * time.Second,
		TickPeriod: 100 * time.Millisecond, BatchDuration: 1500 * time.Millisecond,
		MaxOrders: 48, RatePerSec: 400, Pace: 25 * time.Millisecond,
	}
}

// Stress is the stress-profile churn run: 32 concurrent clients (the stress
// campaign's batch count), tighter ticks, and an order stream in the
// hundreds.
func Stress() Config {
	return Config{
		Profile: "stress", Clients: 32, Duration: 8 * time.Second,
		TickPeriod: 50 * time.Millisecond, BatchDuration: 3 * time.Second,
		MaxOrders: 256, RatePerSec: 1200, Pace: 10 * time.Millisecond,
	}
}

// tierOf assigns client i a service class: every 4th client enterprise,
// every 4th premium, the other half free.
func tierOf(i int) core.Tier {
	switch i % 4 {
	case 0:
		return core.TierEnterprise
	case 1:
		return core.TierPremium
	}
	return core.TierFree
}

// Run executes one load run: boot the gated stack and the DG gateway on
// loopback sockets, drive them with cfg.Clients concurrent tiered clients
// for cfg.Duration, and return the measured Report. The run itself never
// fails on HTTP-level errors — they land in Report.UnexpectedErrors — so a
// degraded stack produces a report naming the degradation instead of a
// truncated run.
func Run(cfg Config) (*Report, error) {
	if cfg.Clients <= 0 || cfg.Duration <= 0 || cfg.TickPeriod <= 0 {
		return nil, fmt.Errorf("loadgen: Clients, Duration and TickPeriod must be positive")
	}
	if cfg.BatchDuration <= 0 {
		cfg.BatchDuration = cfg.Duration / 2
	}

	// DG gateway socket: the wall-clock DG behind the emul wire format.
	dgSrv := httptest.NewServer(emul.NewGatewayHandler(emul.NewWallDG(cfg.BatchDuration, "http://load-dg.local")))
	defer dgSrv.Close()

	// The four modules on one gated socket, spequlosd-shaped: co-located
	// modules still talk HTTP through the gate, with the stack's unlimited
	// service key (mesh credentials, not tenant quota).
	strategy, err := core.StrategyByLabel("9C-C-R")
	if err != nil {
		return nil, err
	}
	policy := core.DefaultTierPolicy()
	keys := service.NewKeyManager(service.LimitsFromPolicy(policy, cfg.RatePerSec))
	stack, err := service.NewStack(service.StackConfig{
		Strategy: strategy,
		Registry: cloud.NewRegistry(cloud.NewMockDriver("mock", 50*time.Millisecond, 0.34)),
		DG:       emul.NewDGClient(dgSrv.URL),
		Keys:     keys,
	})
	if err != nil {
		return nil, err
	}
	defer stack.Close()
	stack.Scheduler.TierPolicy = policy

	// Issue one key per client and fund every user through the gate.
	clientKeys := make([]service.APIKey, cfg.Clients)
	for i := range clientKeys {
		clientKeys[i] = keys.Issue(fmt.Sprintf("u%03d", i), tierOf(i))
		if err := stack.CreditClient.Deposit(clientKeys[i].User, 100_000); err != nil {
			return nil, fmt.Errorf("loadgen: funding %s: %w", clientKeys[i].User, err)
		}
	}

	rec := &recorder{lat: map[opClass][]float64{}}
	var orders atomic.Int64
	var orderedMu sync.Mutex
	var orderedIDs []string
	if cfg.Verbose {
		fmt.Fprintf(os.Stderr, "loadgen: %s profile, %d clients for %v, gate %g req/s, tick %v\n",
			cfg.Profile, cfg.Clients, cfg.Duration, cfg.RatePerSec, cfg.TickPeriod)
	}

	// Monitor ticker: the daemon loop over the socket, each tick timed.
	stopTick := make(chan struct{})
	var tickWG sync.WaitGroup
	tickWG.Add(1)
	go func() {
		defer tickWG.Done()
		t := time.NewTicker(cfg.TickPeriod)
		defer t.Stop()
		for {
			select {
			case <-stopTick:
				return
			case <-t.C:
				start := time.Now()
				resp, err := stack.HTTP.Post(stack.URL+"/scheduler/step", "application/json", nil)
				dur := time.Since(start)
				if err != nil {
					rec.tick(dur, cfg.TickPeriod, fmt.Sprintf("tick: %v", err))
					continue
				}
				drainClose(resp)
				msg := ""
				if resp.StatusCode != http.StatusOK {
					msg = fmt.Sprintf("tick: HTTP %d", resp.StatusCode)
				}
				if cfg.Verbose && dur > cfg.TickPeriod {
					fmt.Fprintf(os.Stderr, "loadgen: tick overran: %v > %v\n", dur, cfg.TickPeriod)
				}
				rec.tick(dur, cfg.TickPeriod, msg)
			}
		}
	}()

	// Load clients.
	deadline := time.Now().Add(cfg.Duration)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runClient(&clientCtx{
				cfg: cfg, idx: i, key: clientKeys[i],
				stackURL: stack.URL, dgURL: dgSrv.URL,
				rec: rec, orders: &orders, deadline: deadline,
				orderedMu: &orderedMu, orderedIDs: &orderedIDs,
			})
		}(i)
	}
	wg.Wait()
	close(stopTick)
	tickWG.Wait()

	report := rec.report(cfg)
	report.BatchesOrdered = int(orders.Load())
	report.BatchesCompleted = countFinalized(stack.SchedulerClient, orderedIDs)
	report.GateStats = keys.GateStats()
	report.ThrottledByTier = throttledByTier(keys, clientKeys)
	return report, nil
}

// clientCtx is everything one load client needs.
type clientCtx struct {
	cfg        Config
	idx        int
	key        service.APIKey
	stackURL   string
	dgURL      string
	rec        *recorder
	orders     *atomic.Int64
	deadline   time.Time
	orderedMu  *sync.Mutex
	orderedIDs *[]string
}

// runClient is one concurrent load client: it draws operations from the mix
// until the deadline, pacing paid tiers and bursting the free tier.
func runClient(c *clientCtx) {
	rng := rand.New(rand.NewSource(seed + int64(c.idx)*7919))
	httpc := service.KeyedClient(c.key.Key)
	dgc := emul.NewDGClient(c.dgURL)
	var mine []string // batch IDs this client ordered
	seq := 0

	order := func() {
		if c.cfg.MaxOrders > 0 && int(c.orders.Load()) >= c.cfg.MaxOrders {
			c.status(httpc, mine, rng)
			return
		}
		seq++
		id := fmt.Sprintf("b-%03d-%04d", c.idx, seq)
		body := fmt.Sprintf(`{"user":%q,"batch_id":%q,"env_key":"load","size":100,"credits":10,"tier":%q,"provider":"mock","image":"img"}`,
			c.key.User, id, c.key.Tier)
		start := time.Now()
		resp, err := httpc.Post(c.stackURL+"/scheduler/qos", "application/json", strings.NewReader(body))
		c.rec.request(c.idx, opOrder, c.key.Tier, start, resp, err)
		if err == nil && resp.StatusCode == http.StatusCreated {
			c.orders.Add(1)
			mine = append(mine, id)
			c.orderedMu.Lock()
			*c.orderedIDs = append(*c.orderedIDs, id)
			c.orderedMu.Unlock()
		}
	}

	for time.Now().Before(c.deadline) {
		switch p := rng.Intn(100); {
		case p < mixStatus:
			c.status(httpc, mine, rng)
		case p < mixStatus+mixProgress:
			c.progress(dgc, mine, rng)
		case p < mixStatus+mixProgress+mixCredit:
			start := time.Now()
			resp, err := httpc.Get(c.stackURL + "/credit/accounts/" + c.key.User)
			c.rec.request(c.idx, opCredit, c.key.Tier, start, resp, err)
		default:
			order()
		}
		// Paid tiers pace their request stream; the free tier deliberately
		// bursts to prove throttling bites it and nobody else.
		if c.cfg.Pace > 0 && c.key.Tier != core.TierFree {
			time.Sleep(c.cfg.Pace)
		}
	}
}

// status polls one of the client's batches (ordering one first if needed).
func (c *clientCtx) status(httpc *http.Client, mine []string, rng *rand.Rand) {
	if len(mine) == 0 {
		// Nothing to poll yet; a cheap healthz keeps the op count honest.
		start := time.Now()
		resp, err := httpc.Get(c.stackURL + "/healthz")
		c.rec.request(c.idx, opStatus, c.key.Tier, start, resp, err)
		return
	}
	id := mine[rng.Intn(len(mine))]
	start := time.Now()
	resp, err := httpc.Get(c.stackURL + "/scheduler/qos/" + id)
	c.rec.request(c.idx, opStatus, c.key.Tier, start, resp, err)
}

// progress issues an aggregated DG progress query for a sample of the
// client's batches — the middleware-side traffic of the monitor loop.
func (c *clientCtx) progress(dgc *emul.DGClient, mine []string, rng *rand.Rand) {
	ids := mine
	if len(ids) == 0 {
		ids = []string{fmt.Sprintf("warm-%03d", c.idx)}
	} else if len(ids) > 8 {
		at := rng.Intn(len(ids) - 7)
		ids = ids[at : at+8]
	}
	start := time.Now()
	_, err := dgc.ProgressBatch(ids)
	c.rec.dgRequest(c.idx, start, err)
}

// countFinalized queries every ordered batch's status and counts the
// finalized ones — the end-to-end completions of the run.
func countFinalized(sched *service.SchedulerClient, ids []string) int {
	done := 0
	for _, id := range ids {
		if st, err := sched.Status(id); err == nil && st.Finalized {
			done++
		}
	}
	return done
}

// throttledByTier sums per-key throttle counts by service class.
func throttledByTier(km *service.KeyManager, keys []service.APIKey) map[string]int64 {
	out := map[string]int64{}
	for _, k := range keys {
		m := km.Metrics(k.Key)
		out[string(k.Tier.OrFree())] += m.Throttled
	}
	return out
}
