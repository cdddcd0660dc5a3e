package service

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"spequlos/internal/cloud"
	"spequlos/internal/core"
	"spequlos/internal/middleware"
)

// routeTransport counts the requests a module client sends per path, and
// answers 500 to those sent to the path in fail without sending them.
type routeTransport struct {
	mu   sync.Mutex
	sent map[string]int
	fail string
}

func (r *routeTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	r.mu.Lock()
	r.sent[req.URL.Path]++
	fail := r.fail == req.URL.Path
	r.mu.Unlock()
	if fail {
		return &http.Response{StatusCode: http.StatusInternalServerError, Request: req,
			Header: http.Header{"Content-Type": {"application/json"}},
			Body:   io.NopCloser(strings.NewReader(`{"error":"oracle unavailable"}`))}, nil
	}
	return http.DefaultTransport.RoundTrip(req)
}

func (r *routeTransport) count(path string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sent[path]
}

// TestWaitOverHTTP is core's TestWaitSkipsLookupAndPlan through the whole
// stack: the Oracle's /plans carries the Wait, and a tick whose DG progress
// is below it sends no POST /credit/orders/lookup and no POST /oracle/plans
// for the batch. Each case scripts one batch of 100 tasks tick by tick.
func TestWaitOverHTTP(t *testing.T) {
	type tick struct {
		completed, workers int
		failPlans          bool   // POST /oracle/plans answers 500 this tick
		asked              string // the lookups and plans the tick sends
	}
	run := func(t *testing.T, tr core.Trigger, credits float64, ticks []tick, between func(int, *Stack)) QoSStatus {
		t.Helper()
		dg := newMultiDG()
		driver := cloud.NewMockDriver("mock", time.Second, 0.10)
		stack := newStack(t, StackConfig{
			Strategy: core.Strategy{Trigger: tr, Sizing: core.Greedy{}, Deploy: core.Reschedule},
			Registry: cloud.NewRegistry(driver),
			DG:       dg,
		})
		now := time.Unix(0, 0).UTC()
		stack.SetClock(func() time.Time { return now })
		driver.SetClock(func() time.Time { return now })
		rt := &routeTransport{sent: map[string]int{}}
		stack.CreditClient.HTTP, stack.OracleClient.HTTP = &http.Client{Transport: rt}, &http.Client{Transport: rt}
		if err := stack.CreditClient.Deposit("u", 100); err != nil {
			t.Fatal(err)
		}
		if err := stack.Scheduler.RegisterQoS(QoSRequest{
			User: "u", BatchID: "b", EnvKey: "e", Size: 100, Credits: credits, Provider: "mock", Image: "img",
		}); err != nil {
			t.Fatal(err)
		}
		const lookup, plans = "/credit/orders/lookup", "/oracle/plans"
		for k, tk := range ticks {
			now = now.Add(time.Minute)
			dg.set("b", middleware.Progress{Size: 100, Arrived: 100, Completed: tk.completed,
				EverAssigned: 100, Running: 100 - tk.completed, Workers: tk.workers})
			if tk.failPlans {
				rt.fail = plans
			}
			lookups, planned := rt.count(lookup), rt.count(plans)
			err := stack.Scheduler.Step()
			rt.fail = ""
			if (err != nil) != tk.failPlans {
				t.Fatalf("tick %d: %v", k+1, err)
			}
			asked := strings.TrimSpace(strings.Repeat("lookup ", rt.count(lookup)-lookups) +
				strings.Repeat("plan ", rt.count(plans)-planned))
			if asked != tk.asked {
				t.Fatalf("tick %d at %d completed: asked %q, want %q", k+1, tk.completed, asked, tk.asked)
			}
			if between != nil {
				between(k+1, stack)
			}
		}
		st, err := stack.Scheduler.Status("b")
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	t.Run("an order placed with Credit directly", func(t *testing.T) {
		var order core.Order
		st := run(t, core.CompletionThreshold{Frac: 0.9}, 0, []tick{
			{completed: 50, asked: "lookup"},
			{completed: 50, asked: "lookup"},
			{completed: 55, asked: "lookup plan"},
			{completed: 60},
			{completed: 89},
			{completed: 92, asked: "lookup plan"},
			{completed: 100},
		}, func(k int, stack *Stack) {
			var err error
			switch k {
			case 2: // POST /credit/orders, behind the Scheduler's back
				err = stack.CreditClient.Order("u", "b", 15)
			case 7:
				order, err = stack.CreditClient.OrderOf("b")
			}
			if err != nil {
				t.Fatal(err)
			}
		})
		if !st.Finalized || st.TriggeredAt != 360 || !order.Closed || order.Billed <= 0 {
			t.Fatalf("status %+v, order %+v: want triggered at 360 s, billed, paid and finalized", st, order)
		}
	})

	t.Run("a failed /plans keeps the Wait", func(t *testing.T) {
		st := run(t, core.CompletionThreshold{Frac: 0.9}, 15, []tick{
			{completed: 50, failPlans: true, asked: "lookup plan"},
			{completed: 50, asked: "lookup plan"},
			{completed: 60},
			{completed: 95, failPlans: true, asked: "lookup plan"},
			{completed: 85}, // the DG re-counts below the Wait
			{completed: 95, asked: "lookup plan"},
		}, nil)
		if !st.Started || st.TriggeredAt != 360 {
			t.Fatalf("status %+v: want started at 360 s", st)
		}
	})

	t.Run("CapacityAware fires on the tick it reaches its floor", func(t *testing.T) {
		st := run(t, core.DefaultCapacityAware(), 15, []tick{
			{completed: 40, workers: 200, asked: "lookup plan"},
			{completed: 60, workers: 60},
			{completed: 69, workers: 60},
			{completed: 70, workers: 60, asked: "lookup plan"},
		}, nil)
		if !st.Started || st.TriggeredAt != 240 {
			t.Fatalf("status %+v: want started at 240 s", st)
		}
	})
}
