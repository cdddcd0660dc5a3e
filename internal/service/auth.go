package service

// This file is the gateway hardening layer: API-key authentication and
// per-tier token-bucket rate limiting in front of the four service modules,
// following the key-manager/tier pattern of the maas-billing qos-prioritizer
// exemplar (SNIPPETS.md #1). Keys bind a caller to a user and a service
// class (core.Tier); each tier carries a request rate derived from the same
// TierPolicy weights that arbitrate cloud admission, so the HTTP front door
// and the fleet scheduler share one notion of what a tier is worth.
// Unauthenticated requests answer 401, a tenant's module writes 403 and
// throttled requests 429 (with Retry-After) BEFORE any module handler runs —
// a rejected request can never place a partial order or mint credits.

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"spequlos/internal/core"
)

// Authentication context headers the Gate stamps on requests it admits.
// Handlers trust them because the Gate strips any client-supplied values
// before setting its own — a caller cannot spoof a higher tier.
const (
	// AuthUserHeader carries the authenticated key's user.
	AuthUserHeader = "X-Spequlos-User"
	// AuthTierHeader carries the authenticated key's service class.
	AuthTierHeader = "X-Spequlos-Tier"
	// APIKeyHeader is the request header clients put their key in
	// (Authorization: Bearer <key> is accepted too).
	APIKeyHeader = "X-API-Key"
)

// TierLimit is one service class's request-rate contract: a token bucket
// refilled at PerSec with capacity Burst. PerSec <= 0 means unlimited.
type TierLimit struct {
	// PerSec is the sustained request rate (tokens per second).
	PerSec float64 `json:"per_sec"`
	// Burst is the bucket capacity — how far a client may run ahead of the
	// sustained rate before 429s start.
	Burst int `json:"burst"`
}

// RateLimits maps each service class to its request-rate contract.
type RateLimits map[core.Tier]TierLimit

// LimitsFromPolicy derives per-tier HTTP rate limits from a TierPolicy:
// totalPerSec is shared in proportion to tier weight (the same weights that
// share cloud slots), and each bucket holds two seconds of its rate as
// burst headroom (minimum 1). A nil policy gives every tier an equal share.
func LimitsFromPolicy(p *core.TierPolicy, totalPerSec float64) RateLimits {
	tiers := core.AllTiers()
	weight := func(t core.Tier) float64 { return 1 }
	totalWeight := float64(len(tiers))
	if p != nil {
		totalWeight = 0
		for _, t := range tiers {
			totalWeight += p.Spec(t).Weight
		}
		if totalWeight > 0 {
			weight = func(t core.Tier) float64 { return p.Spec(t).Weight }
		} else {
			totalWeight = float64(len(tiers))
		}
	}
	limits := RateLimits{}
	for _, t := range tiers {
		rate := totalPerSec * weight(t) / totalWeight
		burst := int(math.Ceil(2 * rate))
		if burst < 1 {
			burst = 1
		}
		limits[t] = TierLimit{PerSec: rate, Burst: burst}
	}
	return limits
}

// APIKey is one credential: it names the caller and fixes the service class
// every gated request runs under.
type APIKey struct {
	// Key is the secret presented in X-API-Key or Authorization: Bearer.
	Key string `json:"key"`
	// User is the account the key belongs to.
	User string `json:"user"`
	// Tier is the key's service class; empty means untiered (rated as free).
	Tier core.Tier `json:"tier"`
	// Revoked keys authenticate nothing but keep their metrics.
	Revoked bool `json:"revoked,omitempty"`
	// Unlimited exempts the key from rate limiting and lets it write to the
	// modules (see Gate) — for operator and service keys, not for tenants.
	Unlimited bool `json:"unlimited,omitempty"`
}

// KeyMetrics counts one key's traffic through the Gate.
type KeyMetrics struct {
	// Requests is every request presenting the key, admitted or not.
	Requests int64 `json:"requests"`
	// Throttled counts 429 rejections.
	Throttled int64 `json:"throttled"`
	// Denied counts 401 rejections (revoked key).
	Denied int64 `json:"denied"`
}

// KeyStatus is one key's public state in a metrics snapshot (the secret is
// elided to its prefix).
type KeyStatus struct {
	// KeyPrefix is the first 8 characters of the key.
	KeyPrefix string `json:"key_prefix"`
	// User is the account the key belongs to.
	User string `json:"user"`
	// Tier is the key's service class.
	Tier core.Tier `json:"tier"`
	// Revoked reports whether the key still authenticates.
	Revoked bool `json:"revoked"`
	// Metrics counts the key's traffic.
	Metrics KeyMetrics `json:"metrics"`
}

// GateMetrics counts gate-wide outcomes across all keys.
type GateMetrics struct {
	// Allowed counts requests passed through to a module handler.
	Allowed int64 `json:"allowed"`
	// Unauthorized counts 401s (missing, unknown or revoked key).
	Unauthorized int64 `json:"unauthorized"`
	// Throttled counts 429s.
	Throttled int64 `json:"throttled"`
}

// keyState is a key plus its token bucket and counters.
type keyState struct {
	key     APIKey
	metrics KeyMetrics

	tokens float64   // current bucket level
	last   time.Time // last refill instant
}

// KeyManager authenticates API keys and rate-limits per key according to
// per-tier token buckets — the key-manager role of the maas-billing
// exemplar. Safe for concurrent use.
type KeyManager struct {
	// Now is the clock the token buckets refill on; overridable in tests.
	Now func() time.Time

	mu     sync.Mutex
	limits RateLimits
	keys   map[string]*keyState
	gate   GateMetrics
}

// NewKeyManager builds a key manager enforcing the given per-tier limits
// (nil limits = no rate limiting, auth only).
func NewKeyManager(limits RateLimits) *KeyManager {
	return &KeyManager{Now: time.Now, limits: limits, keys: map[string]*keyState{}}
}

// Issue mints a fresh random key for a user at a tier and registers it.
func (m *KeyManager) Issue(user string, tier core.Tier) APIKey {
	buf := make([]byte, 16)
	if _, err := rand.Read(buf); err != nil {
		panic(fmt.Sprintf("service: issuing key: %v", err)) // crypto/rand does not fail on supported platforms
	}
	k := APIKey{Key: "sk-" + hex.EncodeToString(buf), User: user, Tier: tier}
	m.Add(k)
	return k
}

// Add registers (or replaces) a key. The bucket starts full.
func (m *KeyManager) Add(k APIKey) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.keys[k.Key] = &keyState{key: k, tokens: float64(m.limitFor(k.Tier).Burst), last: m.Now()}
}

// KeyedClient returns an http.Client that authenticates every request with
// the given API key. Module-to-module clients sitting behind a gated mux
// (e.g. the Scheduler's Information/Credit/Oracle clients in spequlosd
// -keys mode) must use one, typically with an Unlimited service key, or
// their internal calls would 401 at their own gateway.
func KeyedClient(key string) *http.Client {
	return &http.Client{Transport: keyedTransport{key: key, base: http.DefaultTransport}}
}

// keyedTransport stamps the API key header on every outgoing request.
type keyedTransport struct {
	key  string
	base http.RoundTripper
}

// RoundTrip implements http.RoundTripper.
func (t keyedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	c := req.Clone(req.Context())
	c.Header.Set(APIKeyHeader, t.key)
	return t.base.RoundTrip(c)
}

// Metrics returns a key's traffic counters (zero for unknown keys).
func (m *KeyManager) Metrics(key string) KeyMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ks, ok := m.keys[key]; ok {
		return ks.metrics
	}
	return KeyMetrics{}
}

// GateStats returns the gate-wide outcome counters.
func (m *KeyManager) GateStats() GateMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.gate
}

// Snapshot lists every key's public status, sorted by user then key prefix
// — the admin/metrics view (secrets elided).
func (m *KeyManager) Snapshot() []KeyStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]KeyStatus, 0, len(m.keys))
	for _, ks := range m.keys {
		prefix := ks.key.Key
		if len(prefix) > 8 {
			prefix = prefix[:8]
		}
		out = append(out, KeyStatus{
			KeyPrefix: prefix, User: ks.key.User, Tier: ks.key.Tier,
			Revoked: ks.key.Revoked, Metrics: ks.metrics,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].User != out[j].User {
			return out[i].User < out[j].User
		}
		return out[i].KeyPrefix < out[j].KeyPrefix
	})
	return out
}

// limitFor reads a tier's limit under the caller's lock.
func (m *KeyManager) limitFor(t core.Tier) TierLimit {
	if m.limits == nil {
		return TierLimit{}
	}
	return m.limits[t.OrFree()]
}

// admitOutcome is the gate's decision for one request.
type admitOutcome int

const (
	admitOK admitOutcome = iota
	admitUnauthorized
	admitForbidden
	admitThrottled
)

// known returns the state of an existing, unrevoked key, under the caller's
// lock. Any other key is a 401, counted here for every route: gate-wide, and
// as a denied request of the revoked key.
func (m *KeyManager) known(key string) (*keyState, bool) {
	ks, ok := m.keys[key]
	if ok && !ks.key.Revoked {
		return ks, true
	}
	if ok {
		ks.metrics.Requests++
		ks.metrics.Denied++
	}
	m.gate.Unauthorized++
	return nil, false
}

// authenticate reports whether a key exists and is unrevoked, without
// touching its bucket.
func (m *KeyManager) authenticate(key string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.known(key)
	return ok
}

// admit authenticates a key, refuses a tenant a request it may not send
// (tenantOK false), and takes one token from its bucket. retryAfter is the
// seconds until a token is available when throttled.
func (m *KeyManager) admit(key string, tenantOK bool) (k APIKey, outcome admitOutcome, retryAfter float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ks, ok := m.known(key)
	if !ok {
		return APIKey{}, admitUnauthorized, 0
	}
	ks.metrics.Requests++
	if !ks.key.Unlimited && !tenantOK {
		return ks.key, admitForbidden, 0
	}
	lim := m.limitFor(ks.key.Tier)
	if ks.key.Unlimited || lim.PerSec <= 0 {
		m.gate.Allowed++
		return ks.key, admitOK, 0
	}
	now := m.Now()
	if dt := now.Sub(ks.last).Seconds(); dt > 0 {
		ks.tokens = math.Min(float64(lim.Burst), ks.tokens+dt*lim.PerSec)
	}
	ks.last = now
	if ks.tokens < 1 {
		ks.metrics.Throttled++
		m.gate.Throttled++
		return ks.key, admitThrottled, (1 - ks.tokens) / lim.PerSec
	}
	ks.tokens--
	m.gate.Allowed++
	return ks.key, admitOK, 0
}

// MetricsPath is the gate's own introspection route: an authenticated GET
// returns the key snapshot plus gate counters without spending a rate-limit
// token (operators polling metrics must not eat tenant quota).
const MetricsPath = "/authz/metrics"

// authzReply is the payload of GET /authz/metrics.
type authzReply struct {
	Gate GateMetrics `json:"gate"`
	Keys []KeyStatus `json:"keys"`
}

// Gate wraps a handler with API-key authentication and per-tier rate
// limiting. /healthz stays open (load balancers probe it unauthenticated);
// every other route requires a known, unrevoked key in X-API-Key or
// Authorization: Bearer, and a token in the key's tier bucket. A tenant's
// key (not Unlimited) may send GET requests and POST /scheduler/qos: every
// other route is a module write or a tick's bulk query, so it answers 403
// without spending a token. Admitted
// requests carry the key's user and tier in trusted headers
// (AuthUserHeader/AuthTierHeader) for handlers that bind request bodies to
// the authenticated identity.
func (m *KeyManager) Gate(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			next.ServeHTTP(w, r)
			return
		}
		// Strip client-supplied auth context before authenticating: these
		// headers are only ever trustworthy when this gate set them.
		r.Header.Del(AuthUserHeader)
		r.Header.Del(AuthTierHeader)
		key := requestKey(r)
		if key == "" {
			m.mu.Lock()
			m.gate.Unauthorized++
			m.mu.Unlock()
			writeErr(w, http.StatusUnauthorized, fmt.Errorf("service: missing API key (use %s or Authorization: Bearer)", APIKeyHeader))
			return
		}
		if r.Method == http.MethodGet && r.URL.Path == MetricsPath {
			// Authenticate only — metrics polls never spend a token.
			if !m.authenticate(key) {
				writeErr(w, http.StatusUnauthorized, fmt.Errorf("service: unknown or revoked API key"))
				return
			}
			writeJSON(w, http.StatusOK, authzReply{Gate: m.GateStats(), Keys: m.Snapshot()})
			return
		}
		tenantOK := r.Method == http.MethodGet || r.Method == http.MethodPost && r.URL.Path == "/scheduler/qos"
		k, outcome, retry := m.admit(key, tenantOK)
		switch outcome {
		case admitUnauthorized:
			writeErr(w, http.StatusUnauthorized, fmt.Errorf("service: unknown or revoked API key"))
			return
		case admitForbidden:
			writeErr(w, http.StatusForbidden,
				fmt.Errorf("service: %s %s needs an unlimited key; tenant keys read and order QoS", r.Method, r.URL.Path))
			return
		case admitThrottled:
			w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(retry))))
			writeErr(w, http.StatusTooManyRequests,
				fmt.Errorf("service: rate limit exceeded for tier %s", k.Tier.OrFree()))
			return
		}
		r.Header.Set(AuthUserHeader, k.User)
		r.Header.Set(AuthTierHeader, string(k.Tier.OrFree()))
		next.ServeHTTP(w, r)
	})
}

// requestKey extracts the API key from the request headers.
func requestKey(r *http.Request) string {
	if k := r.Header.Get(APIKeyHeader); k != "" {
		return k
	}
	if auth := r.Header.Get("Authorization"); strings.HasPrefix(auth, "Bearer ") {
		return strings.TrimSpace(strings.TrimPrefix(auth, "Bearer "))
	}
	return ""
}
