// Service example (Fig 3): start the four SpeQuloS modules as HTTP services
// on one loopback listener, then play the paper's sequence diagram —
// registerQoS, BoT submission and progress, completion-time prediction,
// credit order, the Scheduler's monitor loop starting cloud workers on a
// (mock) EC2 when the tail is reached, billing, and the final payment with
// refund.
package main

import (
	"fmt"
	"sync"
	"time"

	"spequlos/internal/cloud"
	"spequlos/internal/core"
	"spequlos/internal/middleware"
	"spequlos/internal/service"
)

// scriptDG scripts a BoT whose completion advances each monitor step.
type scriptDG struct {
	mu   sync.Mutex
	done int
}

func (d *scriptDG) set(n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.done = n
}

func (d *scriptDG) ProgressBatch(ids []string) (map[string]middleware.Progress, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := map[string]middleware.Progress{}
	for _, id := range ids {
		out[id] = middleware.Progress{Size: 100, Arrived: 100, Completed: d.done,
			EverAssigned: 100, Running: 100 - d.done}
	}
	return out, nil
}

func (d *scriptDG) InstanceBusy(string) (bool, error) { return true, nil }

func (d *scriptDG) WorkerURL() string { return "http://xwhep.lal.example:4330" }

func main() {
	dg := &scriptDG{}
	ec2 := cloud.NewMockEC2()
	stack, err := service.NewStack(service.StackConfig{
		Strategy: core.DefaultStrategy(),
		Registry: cloud.NewRegistry(ec2),
		DG:       dg,
	})
	must(err)
	defer stack.Close()

	now := time.Now()
	stack.Scheduler.Now = func() time.Time { return now }
	step := func(done int) {
		dg.set(done)
		now = now.Add(time.Minute)
		if err := stack.Scheduler.Step(); err != nil {
			panic(err)
		}
	}

	fmt.Println("1. user deposits 500 credits and registers QoS for bot-42 (100 tasks)")
	must(stack.CreditClient.Deposit("alice", 500))
	must(stack.Scheduler.RegisterQoS(service.QoSRequest{
		User: "alice", BatchID: "bot-42", EnvKey: "XWHEP/seti/SMALL", Size: 100,
		Credits: 300, Provider: "ec2", Image: "xwhep-worker-image",
	}))

	fmt.Println("2. the BoT executes on the BE-DCI; SpeQuloS monitors per minute")
	step(25)
	step(50)

	pred, err := stack.OracleClient.Predict("bot-42")
	must(err)
	fmt.Printf("3. Oracle prediction at 50%%: completion in %.0f s (α=%.2f)\n",
		pred.PredictedTime, pred.Alpha)

	fmt.Println("4. completion reaches 91% — the tail: Scheduler starts cloud workers")
	step(91)
	st, err := stack.Scheduler.Status("bot-42")
	must(err)
	for _, inst := range st.Instances {
		fmt.Printf("   started %s on %s → %s\n", inst.ID, inst.Provider, inst.DGServer)
	}

	fmt.Println("5. cloud workers execute the tail; usage billed per minute")
	step(97)
	o, err := stack.CreditClient.OrderOf("bot-42")
	must(err)
	fmt.Printf("   billed so far: %.2f credits of %.0f provisioned\n", o.Billed, o.Allocated)

	fmt.Println("6. BoT completes: instances stop, order paid, remainder refunded")
	step(100)
	o, _ = stack.CreditClient.OrderOf("bot-42")
	acct, _ := stack.CreditClient.Account("alice")
	fmt.Printf("   final bill %.2f credits; alice's balance back to %.2f\n", o.Billed, acct.Balance)
	fmt.Printf("   instances still running on EC2: %d\n", len(ec2.List()))

	cal, _ := stack.OracleClient.Calibration("XWHEP/seti/SMALL")
	fmt.Printf("7. execution archived for calibration (α=%.2f over %d runs)\n", cal.Alpha, cal.Count)
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
