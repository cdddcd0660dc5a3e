package service

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spequlos/internal/cloud"
	"spequlos/internal/core"
)

// TestConcurrentStackTraffic hammers the stack the way a deployment is hit:
// the scheduler ticker stepping while external clients register batches,
// post samples, poll statuses and list instances — all concurrently. The
// race detector is the primary assertion; the final state must also be
// coherent (no double-launched fleets).
func TestConcurrentStackTraffic(t *testing.T) {
	dg := &scriptedDG{size: 100}
	ec2 := cloud.NewMockEC2()
	stack := newStack(t, StackConfig{
		Strategy: core.DefaultStrategy(),
		Registry: cloud.NewRegistry(ec2),
		DG:       dg,
	})

	var nowNS atomic.Int64
	base := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { return base.Add(time.Duration(nowNS.Load())) }
	stack.SetClock(clock)
	ec2.SetClock(clock)

	stack.CreditClient.Deposit("u", 10_000)
	for i := 0; i < 3; i++ {
		if err := stack.Scheduler.RegisterQoS(QoSRequest{
			User: "u", BatchID: fmt.Sprintf("b%d", i), EnvKey: "e", Size: 100,
			Credits: 100, Provider: "ec2", Image: "img",
		}); err != nil {
			t.Fatal(err)
		}
	}
	dg.set(95, 100)

	var wg sync.WaitGroup
	run := func(fn func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				fn(i)
			}
		}()
	}
	// The ticker role: stepping while advancing the clock.
	run(func(i int) {
		nowNS.Add(int64(2 * time.Second))
		stack.Scheduler.Step() //nolint:errcheck
	})
	// A second ticker (a replicated scheduler instance, Fig 8).
	run(func(i int) { stack.Scheduler.Step() }) //nolint:errcheck
	// External clients.
	run(func(i int) { stack.Scheduler.Status("b0") })  //nolint:errcheck
	run(func(i int) { stack.Scheduler.Instances() })   //nolint:errcheck
	run(func(i int) { stack.InfoClient.Status("b1") }) //nolint:errcheck
	run(func(i int) { stack.InfoClient.Statuses([]string{"b0", "b1"}) })
	run(func(i int) { stack.CreditClient.OrderOf("b2") }) //nolint:errcheck
	run(func(i int) {
		stack.InfoClient.AddSamples([]BatchSample{{BatchID: "b2", Sample: core.Sample{T: float64(i), Completed: i}}})
	})
	run(func(i int) {
		resp, err := http.Get(stack.SchedulerClient.BaseURL + "/qos/b1")
		if err == nil {
			resp.Body.Close()
		}
	})
	wg.Wait()

	// Coherence: every started batch launched exactly one fleet, and every
	// instance the scheduler tracks exists at the provider.
	for i := 0; i < 3; i++ {
		st, err := stack.Scheduler.Status(fmt.Sprintf("b%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if st.Started && len(st.Instances) == 0 {
			t.Fatalf("batch %d started with no instances", i)
		}
		if !st.Started && st.TriggeredAt >= 0 {
			t.Fatalf("batch %d trigger recorded without start: %+v", i, st)
		}
	}
	tracked := stack.Scheduler.Instances()
	provider := ec2.List()
	if len(tracked) != len(provider) {
		t.Fatalf("scheduler tracks %d instances, provider has %d", len(tracked), len(provider))
	}
}
