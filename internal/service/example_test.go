package service_test

import (
	"fmt"
	"time"

	"spequlos/internal/core"
	"spequlos/internal/middleware"
	"spequlos/internal/service"
)

// exampleDG is a minimal Desktop Grid gateway: a fixed batch at 50%
// completion. Production adapters answer these calls from a BOINC or XWHEP
// status API.
type exampleDG struct{}

func (exampleDG) ProgressBatch(ids []string) (map[string]middleware.Progress, error) {
	out := map[string]middleware.Progress{}
	for _, id := range ids {
		out[id] = middleware.Progress{Size: 100, Arrived: 100, Completed: 50, EverAssigned: 100, Running: 50}
	}
	return out, nil
}
func (exampleDG) InstanceBusy(string) (bool, error) { return true, nil }
func (exampleDG) WorkerURL() string                 { return "http://dg.example:4321" }

// ExampleNewStack deploys the four SpeQuloS modules — Information, Credit
// System, Oracle, Scheduler — on one loopback HTTP listener, registers a
// batch for QoS support, and runs one monitor iteration.
func ExampleNewStack() {
	stack, err := service.NewStack(service.StackConfig{
		Strategy: core.DefaultStrategy(),
		DG:       exampleDG{},
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer stack.Close()
	epoch := time.Unix(0, 0).UTC()
	stack.SetClock(func() time.Time { return epoch })

	if err := stack.CreditClient.Deposit("alice", 100); err != nil {
		fmt.Println(err)
		return
	}
	if err := stack.Scheduler.RegisterQoS(service.QoSRequest{
		User: "alice", BatchID: "b1", EnvKey: "XWHEP/seti/SMALL",
		Size: 100, Credits: 60,
	}); err != nil {
		fmt.Println(err)
		return
	}
	if err := stack.Scheduler.Step(); err != nil {
		fmt.Println(err)
		return
	}

	st, _ := stack.Scheduler.Status("b1")
	info, _ := stack.InfoClient.Status("b1")
	fmt.Printf("batch=%s finalized=%v\n", st.BatchID, st.Finalized)
	fmt.Printf("completed fraction observed: %.2f\n", info.CompletedFraction)
	// Output:
	// batch=b1 finalized=false
	// completed fraction observed: 0.50
}
