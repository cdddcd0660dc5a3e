package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"spequlos/internal/core"
)

// gatedEcho wraps a trivial 200 handler behind a Gate with the given
// limits, returning the manager and the server.
func gatedEcho(t *testing.T, limits RateLimits) (*KeyManager, *httptest.Server) {
	t.Helper()
	km := NewKeyManager(limits)
	srv := httptest.NewServer(km.Gate(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{
			"user": r.Header.Get(AuthUserHeader),
			"tier": r.Header.Get(AuthTierHeader),
		})
	})))
	t.Cleanup(srv.Close)
	return km, srv
}

// doKeyed issues a request with an API key attached via the given header
// style ("x-api-key", "bearer" or "" for none).
func doKeyed(t *testing.T, method, url, key, style string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	switch style {
	case "x-api-key":
		req.Header.Set(APIKeyHeader, key)
	case "bearer":
		req.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestGateNegativePaths drives the auth gate through its rejection surface:
// every outcome must carry the right status and a JSON error payload, the
// health probe stays open, and every 401 is counted — gate-wide, and on the
// revoked key's own counters — the token-free metrics route included.
func TestGateNegativePaths(t *testing.T) {
	km, srv := gatedEcho(t, nil)
	good := km.Issue("alice", core.TierPremium)
	revoked := APIKey{Key: "sk-revoked", User: "mallory", Tier: core.TierFree, Revoked: true}
	km.Add(revoked)

	cases := []struct {
		name  string
		key   string
		style string
		path  string
		want  int
	}{
		{"missing key", "", "", "/anything", http.StatusUnauthorized},
		{"unknown key", "sk-deadbeef", "x-api-key", "/anything", http.StatusUnauthorized},
		{"unknown bearer", "sk-deadbeef", "bearer", "/anything", http.StatusUnauthorized},
		{"revoked key", revoked.Key, "x-api-key", "/anything", http.StatusUnauthorized},
		{"good key", good.Key, "x-api-key", "/anything", http.StatusOK},
		{"good bearer", good.Key, "bearer", "/anything", http.StatusOK},
		{"healthz needs no key", "", "", "/healthz", http.StatusOK},
		{"metrics with key", good.Key, "x-api-key", MetricsPath, http.StatusOK},
		{"metrics without key", "", "", MetricsPath, http.StatusUnauthorized},
		{"metrics with revoked key", revoked.Key, "x-api-key", MetricsPath, http.StatusUnauthorized},
		{"metrics with unknown key", "sk-deadbeef", "bearer", MetricsPath, http.StatusUnauthorized},
	}
	var unauthorized, revokedDenied int64
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := doKeyed(t, http.MethodGet, srv.URL+tc.path, tc.key, tc.style)
			defer resp.Body.Close()
			if resp.StatusCode == http.StatusUnauthorized {
				unauthorized++
				if tc.key == revoked.Key {
					revokedDenied++
				}
			}
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.want)
			}
			body, _ := io.ReadAll(resp.Body)
			if !json.Valid(body) {
				t.Fatalf("non-JSON body %q", body)
			}
			if tc.want == http.StatusUnauthorized && !strings.Contains(string(body), "error") {
				t.Fatalf("401 without error payload: %q", body)
			}
		})
	}

	if m := km.Metrics(revoked.Key); m.Denied != revokedDenied || m.Requests != revokedDenied {
		t.Errorf("revoked key answered %d 401s, its counters read %+v", revokedDenied, m)
	}
	if g := km.GateStats(); g.Unauthorized != unauthorized || g.Allowed == 0 {
		t.Errorf("the gate answered %d 401s, its counters read %+v", unauthorized, g)
	}
}

// TestGateStampsTrustedHeaders pins the anti-spoofing contract: the gate
// strips client-supplied auth-context headers and stamps the key's own
// identity, so a free key cannot smuggle an enterprise tier header past it.
func TestGateStampsTrustedHeaders(t *testing.T) {
	km, srv := gatedEcho(t, nil)
	k := km.Issue("eve", core.TierFree)

	req, err := http.NewRequest(http.MethodGet, srv.URL+"/x", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(APIKeyHeader, k.Key)
	req.Header.Set(AuthTierHeader, string(core.TierEnterprise)) // spoof attempt
	req.Header.Set(AuthUserHeader, "root")                      // spoof attempt
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var echo map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&echo); err != nil {
		t.Fatal(err)
	}
	if echo["tier"] != string(core.TierFree) || echo["user"] != "eve" {
		t.Fatalf("spoofed headers reached the handler: %+v", echo)
	}
}

// TestBurstThenSustainRecovery pins the token bucket on a manual clock: a
// client may burst to the bucket capacity, then 429s with a Retry-After
// until the refill rate readmits it.
func TestBurstThenSustainRecovery(t *testing.T) {
	limits := RateLimits{core.TierFree: {PerSec: 2, Burst: 4}}
	km, srv := gatedEcho(t, limits)
	now := time.Unix(1000, 0)
	km.Now = func() time.Time { return now }
	k := km.Issue("burst", core.TierFree)

	get := func() *http.Response { return doKeyed(t, http.MethodGet, srv.URL+"/x", k.Key, "x-api-key") }

	// Burst phase: exactly Burst requests are admitted, the next is 429.
	for i := 0; i < 4; i++ {
		resp := get()
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("burst request %d: status %d", i, resp.StatusCode)
		}
	}
	resp := get()
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("burst overflow: status %d, want 429", resp.StatusCode)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("Retry-After %q, want a positive integer", resp.Header.Get("Retry-After"))
	}

	// Sustain phase: half a second refills one token at 2/s.
	now = now.Add(500 * time.Millisecond)
	resp = get()
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-refill request: status %d, want 200", resp.StatusCode)
	}
	resp = get()
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second post-refill request: status %d, want 429 (only one token refilled)", resp.StatusCode)
	}

	// Full recovery: a long quiet period refills to Burst, not beyond.
	now = now.Add(time.Hour)
	admitted := 0
	for i := 0; i < 10; i++ {
		resp := get()
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			admitted++
		}
	}
	if admitted != 4 {
		t.Fatalf("after recovery %d requests admitted, want exactly Burst=4", admitted)
	}
}

// TestConcurrentClientsSharedKey hammers one key from many goroutines: the
// gate must stay race-free and every request must resolve to exactly one of
// admitted or throttled, with the admitted count capped by the bucket.
func TestConcurrentClientsSharedKey(t *testing.T) {
	limits := RateLimits{core.TierFree: {PerSec: 0.001, Burst: 10}}
	km, srv := gatedEcho(t, limits)
	now := time.Unix(2000, 0)
	km.Now = func() time.Time { return now } // frozen: no refill during the test
	k := km.Issue("shared", core.TierFree)

	const goroutines, each = 8, 25
	var ok, throttled int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				resp := doKeyed(t, http.MethodGet, srv.URL+"/x", k.Key, "x-api-key")
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
				mu.Lock()
				switch resp.StatusCode {
				case http.StatusOK:
					ok++
				case http.StatusTooManyRequests:
					throttled++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	if total := ok + throttled; total != goroutines*each {
		t.Fatalf("%d requests resolved, want %d (some answered neither 200 nor 429)", total, goroutines*each)
	}
	if ok != 10 {
		t.Errorf("%d admitted on a frozen clock, want exactly Burst=10", ok)
	}
	m := km.Metrics(k.Key)
	if m.Requests != goroutines*each || m.Throttled != throttled {
		t.Errorf("metrics drifted from observed outcomes: %+v (throttled %d)", m, throttled)
	}
}

// TestUnlimitedKeyBypassesBuckets pins the operator/service-mesh exemption.
func TestUnlimitedKeyBypassesBuckets(t *testing.T) {
	limits := RateLimits{core.TierEnterprise: {PerSec: 0.001, Burst: 1}}
	km, srv := gatedEcho(t, limits)
	km.Add(APIKey{Key: "sk-svc", User: "daemon", Tier: core.TierEnterprise, Unlimited: true})
	for i := 0; i < 20; i++ {
		resp := doKeyed(t, http.MethodGet, srv.URL+"/x", "sk-svc", "x-api-key")
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("unlimited key throttled on request %d: status %d", i, resp.StatusCode)
		}
	}
}

// TestMetricsPathSpendsNoToken pins the introspection contract: operators
// polling /authz/metrics must not consume tenant quota.
func TestMetricsPathSpendsNoToken(t *testing.T) {
	limits := RateLimits{core.TierFree: {PerSec: 0.001, Burst: 2}}
	km, srv := gatedEcho(t, limits)
	now := time.Unix(3000, 0)
	km.Now = func() time.Time { return now }
	k := km.Issue("watcher", core.TierFree)

	for i := 0; i < 10; i++ {
		resp := doKeyed(t, http.MethodGet, srv.URL+MetricsPath, k.Key, "x-api-key")
		var reply authzReply
		if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("metrics poll %d: status %d", i, resp.StatusCode)
		}
	}
	// The bucket is untouched: both tokens still admit real requests.
	for i := 0; i < 2; i++ {
		resp := doKeyed(t, http.MethodGet, srv.URL+"/x", k.Key, "x-api-key")
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d after metrics polls: status %d, want 200", i, resp.StatusCode)
		}
	}
}

// TestLimitsFromPolicy pins the weight-to-rate derivation: the HTTP budget
// splits like the cloud slots, enterprise ahead of premium ahead of free,
// with two seconds of burst headroom each.
func TestLimitsFromPolicy(t *testing.T) {
	lim := LimitsFromPolicy(core.DefaultTierPolicy(), 100)
	e, p, f := lim[core.TierEnterprise], lim[core.TierPremium], lim[core.TierFree]
	if !(e.PerSec > p.PerSec && p.PerSec > f.PerSec) {
		t.Fatalf("rates not ordered by weight: %+v", lim)
	}
	if got := e.PerSec + p.PerSec + f.PerSec; got < 99.9 || got > 100.1 {
		t.Errorf("rates sum to %g, want ~100", got)
	}
	if e.Burst < int(e.PerSec) {
		t.Errorf("burst %d below one second of rate %g", e.Burst, e.PerSec)
	}

	// Nil policy: equal shares, still positive.
	eq := LimitsFromPolicy(nil, 30)
	for _, tier := range core.AllTiers() {
		if eq[tier].PerSec != 10 {
			t.Fatalf("nil-policy share %+v, want 10 req/s each", eq)
		}
	}
}

// TestGateBlocksStateMutation is the regression pin for the PR's core
// security property: a request rejected by the gate — 401 or 429 — must
// leave the Scheduler and the Credit System exactly as it found them. A
// rejected QoS order must not register a batch, place a credit order, or
// touch an account.
func TestGateBlocksStateMutation(t *testing.T) {
	limits := RateLimits{core.TierPremium: {PerSec: 0.001, Burst: 1}}
	km := NewKeyManager(limits)
	now := time.Unix(4000, 0)
	km.Now = func() time.Time { return now }
	k := km.Issue("tenant", core.TierPremium)

	// The gated front door: one socket, all modules behind the gate.
	st := newStack(t, StackConfig{Strategy: core.DefaultStrategy(), DG: &scriptedDG{size: 10}, Keys: km})

	credits := st.Credit.Credits()
	if err := credits.Deposit("tenant", 500); err != nil {
		t.Fatal(err)
	}
	balanceBefore := credits.AccountOf("tenant").Balance

	orderBody := func(id string) string {
		return fmt.Sprintf(`{"user":"tenant","batch_id":%q,"env_key":"e","size":10,"credits":50,"tier":"premium","provider":"ec2","image":"img"}`, id)
	}
	post := func(id, key string) *http.Response {
		req, err := http.NewRequest(http.MethodPost, st.URL+"/scheduler/qos", strings.NewReader(orderBody(id)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if key != "" {
			req.Header.Set(APIKeyHeader, key)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		return resp
	}
	assertUntouched := func(label, id string) {
		t.Helper()
		if _, err := st.Scheduler.Status(id); err == nil {
			t.Errorf("%s: batch %s registered in the Scheduler", label, id)
		}
		if _, ok := credits.OrderOf(id); ok {
			t.Errorf("%s: credit order placed for %s", label, id)
		}
		if bal := credits.AccountOf("tenant").Balance; bal != balanceBefore {
			t.Errorf("%s: balance moved %g → %g", label, balanceBefore, bal)
		}
	}

	// Unauthenticated: 401, no state.
	if resp := post("b-unauth", ""); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated order: status %d, want 401", resp.StatusCode)
	}
	assertUntouched("401", "b-unauth")

	// Spend the single token, then a throttled order: 429, no state.
	if resp := doKeyed(t, http.MethodGet, st.URL+"/healthz", "", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	if resp := post("b-spend", k.Key); resp.StatusCode != http.StatusCreated {
		t.Fatalf("token-spending order: status %d, want 201", resp.StatusCode)
	}
	if resp := post("b-throttled", k.Key); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("throttled order: status %d, want 429", resp.StatusCode)
	}
	// The admitted order moved state; rebase and verify the 429 added nothing.
	balanceBefore = credits.AccountOf("tenant").Balance
	assertUntouched("429", "b-throttled")
	if _, err := st.Scheduler.Status("b-spend"); err != nil {
		t.Errorf("admitted order b-spend missing from the Scheduler: %v", err)
	}
}

// TestQoSTierEscalationForbidden pins the tier-binding rule end to end
// through the gate: a key may order at or below its own tier, never above.
func TestQoSTierEscalationForbidden(t *testing.T) {
	km := NewKeyManager(nil)
	st := newStack(t, StackConfig{Strategy: core.DefaultStrategy(), DG: &scriptedDG{size: 10}, Keys: km})
	if err := st.Credit.Credits().Deposit("climber", 1000); err != nil {
		t.Fatal(err)
	}
	k := km.Issue("climber", core.TierFree)

	post := func(id, tier string) int {
		body := fmt.Sprintf(`{"batch_id":%q,"env_key":"e","size":10,"credits":10,"tier":%q,"provider":"ec2","image":"img"}`, id, tier)
		req, err := http.NewRequest(http.MethodPost, st.URL+"/scheduler/qos", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(APIKeyHeader, k.Key)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := post("b-esc", "enterprise"); code != http.StatusForbidden {
		t.Errorf("free key ordered enterprise service: status %d, want 403", code)
	}
	if _, err := st.Scheduler.Status("b-esc"); err == nil {
		t.Error("escalated order registered a batch")
	}
	if code := post("b-own", "free"); code != http.StatusCreated {
		t.Errorf("free key ordering free service: status %d, want 201", code)
	}
	// An empty body tier inherits the key's tier and lands as free.
	if code := post("b-inherit", ""); code != http.StatusCreated {
		t.Errorf("tierless order under a free key: status %d, want 201", code)
	}
	stt, err := st.Scheduler.Status("b-inherit")
	if err != nil {
		t.Fatal(err)
	}
	if stt.Tier != string(core.TierFree) {
		t.Errorf("inherited tier %q, want free", stt.Tier)
	}
}
