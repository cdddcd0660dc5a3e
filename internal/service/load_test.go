package service_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spequlos/internal/cloud"
	"spequlos/internal/core"
	"spequlos/internal/emul"
	"spequlos/internal/service"
)

// The tiered load run: eight keyed clients drive the gated stack for
// loadWindow while the monitor loop ticks every loadTick. The gate shares
// loadRatePerSec by tier weight; paid clients wait loadPace between requests
// and free clients burst, so only the free tier runs out of tokens.
const (
	loadClients    = 8
	loadWindow     = 1500 * time.Millisecond
	loadTick       = 100 * time.Millisecond
	loadBatch      = 700 * time.Millisecond // a WallDG batch's duration
	loadRatePerSec = 300
	loadPace       = 25 * time.Millisecond
	loadMaxOrders  = 48
	loadDeposit    = 100_000.0
)

// loadTier is client i's service class: 2 enterprise, 2 premium and 4 free
// among eight.
func loadTier(i int) core.Tier {
	switch i % 4 {
	case 0:
		return core.TierEnterprise
	case 1:
		return core.TierPremium
	}
	return core.TierFree
}

// loadTally counts a load run's answers: 2xx per request class, 429s, and
// every other outcome — a transport error or any other status — verbatim.
type loadTally struct {
	mu        sync.Mutex
	ok        map[string]int
	throttled int
	failures  []string
}

// record files one answer of a request class and closes its body. A nil
// response with a nil error is a typed client call that succeeded.
func (l *loadTally) record(class string, resp *http.Response, err error) {
	status := http.StatusOK
	if resp != nil {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // the status is the answer
		resp.Body.Close()
		status = resp.StatusCode
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case err != nil:
		l.failures = append(l.failures, fmt.Sprintf("%s: %v", class, err))
	case status == http.StatusTooManyRequests:
		l.throttled++
	case status >= 200 && status < 300:
		l.ok[class]++
	default:
		l.failures = append(l.failures, fmt.Sprintf("%s: HTTP %d", class, status))
	}
}

// TestStackSurvivesTieredLoad boots one gated service.Stack over a
// wall-clock DG behind the gateway wire, on real loopback sockets, and
// drives it with tiered clients — status polls, credit reads, QoS orders and
// DG progress queries — while POST /scheduler/step ticks concurrently. Every
// answer is 2xx or a 429; throttling bites the free tier and never
// enterprise; and after a final tick each user's ledger still balances.
func TestStackSurvivesTieredLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("socket load run in -short mode")
	}
	dgSrv := httptest.NewServer(emul.NewGatewayHandler(emul.NewWallDG(loadBatch, "http://load-dg.invalid")))
	defer dgSrv.Close()
	policy := core.DefaultTierPolicy()
	keys := service.NewKeyManager(service.LimitsFromPolicy(policy, loadRatePerSec))
	stack, err := service.NewStack(service.StackConfig{
		Strategy: core.DefaultStrategy(),
		Registry: cloud.NewRegistry(cloud.NewMockDriver("mock", 50*time.Millisecond, 0.34)),
		DG:       emul.NewDGClient(dgSrv.URL),
		Keys:     keys,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close()
	stack.Scheduler.TierPolicy = policy

	clientKeys := make([]service.APIKey, loadClients)
	for i := range clientKeys {
		clientKeys[i] = keys.Issue(fmt.Sprintf("u%d", i), loadTier(i))
		if err := stack.CreditClient.Deposit(clientKeys[i].User, loadDeposit); err != nil {
			t.Fatal(err)
		}
	}

	tally := &loadTally{ok: map[string]int{}}
	tick := func() {
		resp, err := stack.HTTP.Post(stack.URL+"/scheduler/step", "application/json", nil)
		tally.record("tick", resp, err)
	}
	stopTicks := make(chan struct{})
	ticking := make(chan struct{})
	go func() {
		defer close(ticking)
		ticker := time.NewTicker(loadTick)
		defer ticker.Stop()
		for {
			select {
			case <-stopTicks:
				return
			case <-ticker.C:
				tick()
			}
		}
	}()

	var (
		orders    atomic.Int64
		orderedMu sync.Mutex
		ordered   []string // every batch id answered 201
		wg        sync.WaitGroup
	)
	deadline := time.Now().Add(loadWindow)
	for i, key := range clientKeys {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(1 + 7919*int64(i)))
			httpc := service.KeyedClient(key.Key)
			dgc := emul.NewDGClient(dgSrv.URL)
			var mine []string
			get := func(class, path string) {
				resp, err := httpc.Get(stack.URL + path)
				tally.record(class, resp, err)
			}
			status := func() {
				if len(mine) == 0 {
					get("status", "/healthz")
					return
				}
				get("status", "/scheduler/qos/"+mine[rng.Intn(len(mine))])
			}
			for seq := 0; time.Now().Before(deadline); seq++ {
				switch p := rng.Intn(100); {
				case p < 55:
					status()
				case p < 75:
					ids := []string{fmt.Sprintf("warm-%d", i)}
					if len(mine) > 0 {
						at := rng.Intn(max(len(mine)-7, 1))
						ids = mine[at:min(at+8, len(mine))]
					}
					_, err := dgc.ProgressBatch(ids)
					tally.record("progress", nil, err)
				case p < 90:
					get("credit", "/credit/accounts/"+key.User)
				case orders.Load() >= loadMaxOrders:
					status()
				default:
					id := fmt.Sprintf("b-%d-%d", i, seq)
					body, _ := json.Marshal(service.QoSRequest{
						User: key.User, BatchID: id, EnvKey: "load", Size: 100, Credits: 10,
						Tier: string(key.Tier), Provider: "mock", Image: "img",
					})
					resp, err := httpc.Post(stack.URL+"/scheduler/qos", "application/json", bytes.NewReader(body))
					if err == nil && resp.StatusCode == http.StatusCreated {
						orders.Add(1)
						mine = append(mine, id)
						orderedMu.Lock()
						ordered = append(ordered, id)
						orderedMu.Unlock()
					}
					tally.record("order", resp, err)
				}
				if key.Tier != core.TierFree {
					time.Sleep(loadPace)
				}
			}
		}()
	}
	wg.Wait()
	close(stopTicks)
	<-ticking
	tick()

	if n := len(tally.failures); n > 0 {
		t.Errorf("%d answers neither 2xx nor 429, first: %s", n, strings.Join(tally.failures[:min(n, 8)], "; "))
	}
	throttled := map[core.Tier]int64{}
	for _, k := range clientKeys {
		throttled[k.Tier] += keys.Metrics(k.Key).Throttled
	}
	if throttled[core.TierFree] == 0 || tally.throttled == 0 {
		t.Errorf("the bursting free tier drew no 429s: %v", throttled)
	}
	if n := throttled[core.TierEnterprise]; n != 0 {
		t.Errorf("the enterprise tier drew %d 429s, want 0", n)
	}
	if n := keys.GateStats().Unauthorized; n != 0 {
		t.Errorf("the gate answered %d requests 401, want 0", n)
	}
	for _, class := range []string{"status", "credit", "order", "progress", "tick"} {
		if tally.ok[class] == 0 {
			t.Errorf("no %s request answered 2xx", class)
		}
	}
	t.Logf("%d orders placed, 2xx per class %v, %d 429s (by tier %v)", len(ordered), tally.ok, tally.throttled, throttled)

	// Every credit a user deposited is in the account, spent, or held by one
	// of the user's open orders. Wall-clock bills are not exact quarters, so
	// the sums agree to a relative 1e-9.
	credits := stack.Credit.Credits()
	held := map[string]float64{}
	for _, id := range ordered {
		if o, ok := credits.OrderOf(id); ok && !o.Closed {
			held[o.User] += o.Remaining()
		}
	}
	for _, k := range clientKeys {
		a := credits.AccountOf(k.User)
		if got := a.Balance + a.Spent + held[k.User]; math.Abs(got-loadDeposit) > 1e-9*loadDeposit {
			t.Errorf("%s: balance %g + spent %g + held %g = %g, deposited %g",
				k.User, a.Balance, a.Spent, held[k.User], got, loadDeposit)
		}
	}
}
