package service

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"spequlos/internal/cloud"
	"spequlos/internal/core"
	"spequlos/internal/middleware"
)

var updateTickGolden = flag.Bool("update-tick-golden", false, "rewrite testdata/tick_golden.json")

// tickGoldenDG scripts per-batch progress and per-instance idleness.
type tickGoldenDG struct {
	*multiDG
	mu   sync.Mutex
	idle map[string]bool
}

func (d *tickGoldenDG) InstanceBusy(id string) (bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return !d.idle[id], nil
}

// tickRecord is the observable state after one monitor iteration.
type tickRecord struct {
	Label    string                  `json:"label"`
	StepErr  string                  `json:"step_error"`
	Statuses []QoSStatus             `json:"statuses"`
	Orders   []core.Order            `json:"orders"`
	Accounts []core.Account          `json:"accounts"`
	Provider []cloud.InstanceInfo    `json:"provider_instances"`
	Info     map[string]*BatchStatus `json:"information"`
}

// TestTickGolden replays a scripted multi-tenant episode and compares every
// tick's observable state — the Scheduler's per-batch status, every credit
// order and account, the provider's instance list and Information's view —
// byte for byte against testdata/tick_golden.json. The file was recorded from
// the per-call tick (one AddSample, HasCredits, OrderOf, Plan and Bill round
// trip per batch) at the commit before the bulk tick replaced it, so passing
// means the phased tick takes the same decisions in the same order. It was
// recorded again once, when tier admission moved before the apply loop (the
// simulator's arbitration): free-idle, denied at t4 while prem-dry's dry
// fleet still holds its slot, now starts at t5 instead of t4, and everything
// free-idle's fleet touches moved one tick with it.
//
// The episode covers: three tiers under a fleet cap of two (a denied batch is
// admitted the tick after a holder's fleet stops), an order that runs dry
// mid-run, Greedy idle release, an event-driven StepBatch finalization
// between ticks, and a batch Information never tracked, whose error every
// tick must not disturb its neighbours.
func TestTickGolden(t *testing.T) {
	dg := &tickGoldenDG{multiDG: newMultiDG(), idle: map[string]bool{}}
	driver := cloud.NewMockDriver("mock", time.Second, 0.10)
	stack := newStack(t, StackConfig{
		Strategy: core.Strategy{Trigger: core.CompletionThreshold{Frac: 0.9},
			Sizing: core.Greedy{}, Deploy: core.Reschedule},
		Registry: cloud.NewRegistry(driver),
		DG:       dg,
	})
	now := time.Unix(0, 0).UTC()
	stack.SetClock(func() time.Time { return now })
	driver.SetClock(func() time.Time { return now })
	stack.Scheduler.TierPolicy = core.DefaultTierPolicy()
	stack.Scheduler.TierPolicy.FleetCap = 2

	// Information behind a proxy that acknowledges the registration of
	// "ghost" without recording it: the Scheduler monitors a batch
	// Information has never heard of.
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/batches" {
			body, _ := io.ReadAll(r.Body)
			var req TrackRequest
			if json.Unmarshal(body, &req) == nil && req.BatchID == "ghost" {
				writeJSON(w, http.StatusCreated, map[string]string{"batch_id": "ghost"})
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		stack.Information.ServeHTTP(w, r)
	}))
	defer proxy.Close()
	stack.InfoClient.BaseURL = proxy.URL

	batches := []QoSRequest{
		{User: "alice", BatchID: "ent-a", Tier: "enterprise", Credits: 45},
		{User: "bob", BatchID: "ghost", Tier: "premium", Credits: 15},
		{User: "bob", BatchID: "prem-dry", Tier: "premium", Credits: 0.3},
		{User: "carol", BatchID: "free-idle", Tier: "free", Credits: 60},
		{User: "alice", BatchID: "free-late", Tier: "free", Credits: 30},
	}
	users := []string{"alice", "bob", "carol"}
	for _, u := range users {
		if err := stack.CreditClient.Deposit(u, 100); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range batches {
		b.EnvKey, b.Size, b.Provider, b.Image = "env/"+b.BatchID, 100, "mock", "img"
		if err := stack.Scheduler.RegisterQoS(b); err != nil {
			t.Fatal(err)
		}
	}
	progress := func(done map[string]int) {
		for _, b := range batches {
			c := done[b.BatchID]
			dg.set(b.BatchID, middleware.Progress{Size: 100, Arrived: 100,
				Completed: c, EverAssigned: 100, Running: 100 - c})
		}
	}

	var records []tickRecord
	record := func(label string, stepErr error) {
		rec := tickRecord{Label: label, Provider: driver.List(), Info: map[string]*BatchStatus{}}
		if stepErr != nil {
			rec.StepErr = stepErr.Error()
		}
		for _, b := range batches {
			st, err := stack.Scheduler.Status(b.BatchID)
			if err != nil {
				t.Fatal(err)
			}
			rec.Statuses = append(rec.Statuses, st)
			o, _ := stack.Credit.Credits().OrderOf(b.BatchID)
			rec.Orders = append(rec.Orders, o)
			rec.Info[b.BatchID] = nil
			if ist, err := stack.InfoClient.Status(b.BatchID); err == nil {
				rec.Info[b.BatchID] = &ist
			}
		}
		for _, u := range users {
			rec.Accounts = append(rec.Accounts, stack.Credit.Credits().AccountOf(u))
		}
		records = append(records, rec)
	}
	tick := func(label string, dt time.Duration, done map[string]int) {
		now = now.Add(dt)
		progress(done)
		record(label, stack.Scheduler.Step())
	}

	tick("t1 nothing fires", time.Minute, map[string]int{"ent-a": 50, "ghost": 50, "prem-dry": 50, "free-idle": 50, "free-late": 50})
	tick("t2 two start, the fleet cap denies two", time.Minute, map[string]int{"ent-a": 92, "ghost": 95, "prem-dry": 95, "free-idle": 91, "free-late": 93})
	tick("t3 first bills", time.Minute, map[string]int{"ent-a": 93, "ghost": 95, "prem-dry": 95, "free-idle": 92, "free-late": 93})
	tick("t4 prem-dry runs dry, its fleet still holds the slot", time.Minute, map[string]int{"ent-a": 94, "ghost": 96, "prem-dry": 96, "free-idle": 93, "free-late": 94})
	tick("t5 free-idle takes the freed slot", time.Minute, map[string]int{"ent-a": 97, "ghost": 96, "prem-dry": 96, "free-idle": 95, "free-late": 95})
	// Two of free-idle's four workers obtained no work.
	st, err := stack.Scheduler.Status("free-idle")
	if err != nil || len(st.Instances) != 4 {
		t.Fatalf("free-idle fleet: %+v, %v", st, err)
	}
	dg.mu.Lock()
	dg.idle[st.Instances[1].ID], dg.idle[st.Instances[3].ID] = true, true
	dg.mu.Unlock()

	// ent-a completes between two ticks and is finalized alone.
	now = now.Add(30 * time.Second)
	progress(map[string]int{"ent-a": 100, "ghost": 96, "prem-dry": 96, "free-idle": 95, "free-late": 95})
	record("t5.5 StepBatch finalizes ent-a", stack.Scheduler.StepBatch("ent-a"))

	tick("t6 idle workers released, free-late admitted", 30*time.Second, map[string]int{"ent-a": 100, "ghost": 97, "prem-dry": 97, "free-idle": 97, "free-late": 96})
	tick("t7 free-idle and prem-dry finalize", time.Minute, map[string]int{"ent-a": 100, "ghost": 98, "prem-dry": 100, "free-idle": 100, "free-late": 98})
	tick("t8 free-late finalizes", time.Minute, map[string]int{"ent-a": 100, "ghost": 100, "prem-dry": 100, "free-idle": 100, "free-late": 100})
	tick("t9 only ghost is left", time.Minute, map[string]int{"ent-a": 100, "ghost": 100, "prem-dry": 100, "free-idle": 100, "free-late": 100})

	got, err := json.MarshalIndent(records, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "tick_golden.json")
	if *updateTickGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("the tick diverged from %s (%d bytes, want %d); first difference at byte %d",
			path, len(got), len(want), firstDiff(got, want))
	}

	// The comparison is vacuous unless the episode reached every case.
	final := records[len(records)-1]
	for i, b := range batches {
		st := final.Statuses[i]
		switch b.BatchID {
		case "ghost":
			if st.Finalized || st.Started {
				t.Errorf("ghost: %+v", st)
			}
		case "prem-dry":
			if !st.Exhausted || !st.Finalized {
				t.Errorf("prem-dry: %+v", st)
			}
		default:
			if !st.Finalized || st.TriggeredAt < 0 || st.Exhausted {
				t.Errorf("%s: %+v", b.BatchID, st)
			}
		}
	}
	if final.StepErr == "" {
		t.Error("ghost's error never surfaced from Step")
	}
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
