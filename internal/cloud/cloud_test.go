package cloud

import (
	"sync"
	"testing"
	"time"

	"spequlos/internal/bot"
	"spequlos/internal/middleware"
	"spequlos/internal/sim"
	"spequlos/internal/xwhep"
)

func tasks(nops ...float64) []bot.Task {
	out := make([]bot.Task, len(nops))
	for i, n := range nops {
		out[i] = bot.Task{ID: i, NOps: n}
	}
	return out
}

func TestSimCloudBootAndJoin(t *testing.T) {
	eng := sim.NewEngine()
	srv := xwhep.New(eng, xwhep.DefaultConfig())
	srv.Submit(middleware.Batch{ID: "b", Tasks: tasks(3000)})
	c := NewSimCloud(eng, sim.NewRNG(1))
	inst := c.Start(srv, "b", false)
	if inst.Booted() {
		t.Fatal("instance booted instantly")
	}
	if !inst.Running() {
		t.Fatal("instance not running")
	}
	eng.Run()
	if !inst.Booted() || inst.BootedAt != 120 {
		t.Fatalf("booted at %v, want 120", inst.BootedAt)
	}
	if !srv.Done("b") {
		t.Fatal("cloud worker did not execute the batch")
	}
	if inst.Worker.DedicatedBatch != "b" || !inst.Worker.Cloud {
		t.Fatalf("worker misconfigured: %+v", inst.Worker)
	}
}

func TestSimCloudFlatMode(t *testing.T) {
	eng := sim.NewEngine()
	srv := xwhep.New(eng, xwhep.DefaultConfig())
	c := NewSimCloud(eng, sim.NewRNG(1))
	inst := c.Start(srv, "b", true)
	if inst.Worker.DedicatedBatch != "" {
		t.Fatal("flat worker must not be dedicated")
	}
	if inst.BatchID != "b" {
		t.Fatal("instance must remember its funding batch")
	}
}

func TestSimCloudStopBeforeBoot(t *testing.T) {
	eng := sim.NewEngine()
	srv := xwhep.New(eng, xwhep.DefaultConfig())
	srv.Submit(middleware.Batch{ID: "b", Tasks: tasks(1000)})
	c := NewSimCloud(eng, sim.NewRNG(1))
	inst := c.Start(srv, "b", false)
	eng.RunUntil(50)
	c.Stop(inst)
	c.Stop(inst) // idempotent
	eng.Run()
	if srv.Done("b") {
		t.Fatal("stopped-before-boot instance computed the batch")
	}
	if inst.Running() {
		t.Fatal("instance still running after stop")
	}
	if got := inst.CPUSeconds(1e9); got != 50 {
		t.Fatalf("billed %v s, want 50 (stop time caps billing)", got)
	}
}

func TestSimCloudStopDetachesWorker(t *testing.T) {
	eng := sim.NewEngine()
	srv := xwhep.New(eng, xwhep.DefaultConfig())
	srv.Submit(middleware.Batch{ID: "b", Tasks: tasks(1e9)})
	c := NewSimCloud(eng, sim.NewRNG(1))
	inst := c.Start(srv, "b", false)
	eng.RunUntil(500) // booted at 120, computing
	if !inst.Busy() {
		t.Fatal("instance should be computing")
	}
	c.Stop(inst)
	if inst.Running() || inst.Busy() {
		t.Fatal("instance still running after stop")
	}
	eng.RunUntil(200000)
	if srv.Done("b") {
		t.Fatal("batch completed by a stopped instance")
	}
}

func TestSimCloudStopAllAndBilling(t *testing.T) {
	eng := sim.NewEngine()
	srv := xwhep.New(eng, xwhep.DefaultConfig())
	c := NewSimCloud(eng, sim.NewRNG(1))
	var insts []*Instance
	for i := 0; i < 3; i++ {
		insts = append(insts, c.Start(srv, "b", false))
	}
	eng.RunUntil(3600)
	for _, inst := range insts {
		if got := inst.CPUSeconds(eng.Now()); got != 3600 {
			t.Fatalf("billed %v, want 3600", got)
		}
		c.Stop(inst)
	}
	eng.RunUntil(7200)
	for _, inst := range insts {
		if inst.Running() || inst.CPUSeconds(eng.Now()) != 3600 {
			t.Fatalf("a stopped instance runs on: running %v, billed %v", inst.Running(), inst.CPUSeconds(eng.Now()))
		}
	}
}

func TestInstancePowersVary(t *testing.T) {
	eng := sim.NewEngine()
	srv := xwhep.New(eng, xwhep.DefaultConfig())
	c := NewSimCloud(eng, sim.NewRNG(7))
	p1 := c.Start(srv, "b", false).Worker.Power
	p2 := c.Start(srv, "b", false).Worker.Power
	p3 := c.Start(srv, "b", false).Worker.Power
	if p1 == p2 && p2 == p3 {
		t.Fatal("cloud powers should be heterogeneous")
	}
	for _, p := range []float64{p1, p2, p3} {
		if p < 1000 || p > 5000 {
			t.Fatalf("power %v outside the truncated-normal bounds", p)
		}
	}
}

func TestMockDriverLifecycle(t *testing.T) {
	d := NewMockDriver("test", 10*time.Millisecond, 0.5)
	info, err := d.Launch(LaunchRequest{Image: "xwhep-worker", BatchID: "b", DGServer: "http://dg"})
	if err != nil {
		t.Fatal(err)
	}
	if info.State != StatePending || info.Provider != "test" {
		t.Fatalf("launch info: %+v", info)
	}
	time.Sleep(20 * time.Millisecond)
	got, err := d.Describe(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateRunning {
		t.Fatalf("state = %s, want running after boot latency", got.State)
	}
	if len(d.List()) != 1 {
		t.Fatal("list wrong")
	}
	if err := d.Terminate(info.ID); err != nil {
		t.Fatal(err)
	}
	if len(d.List()) != 0 {
		t.Fatal("terminated instance still listed")
	}
	if err := d.Terminate(info.ID); err == nil {
		t.Fatal("double terminate should error")
	}
	if _, err := d.Describe(info.ID); err == nil {
		t.Fatal("describe after terminate should error")
	}
}

func TestMockDriverRejectsEmptyImage(t *testing.T) {
	d := NewMockEC2()
	if _, err := d.Launch(LaunchRequest{}); err == nil {
		t.Fatal("empty image accepted")
	}
}

func TestMockDriverConcurrency(t *testing.T) {
	d := NewMockEC2()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				info, err := d.Launch(LaunchRequest{Image: "img"})
				if err != nil {
					t.Error(err)
					return
				}
				d.List()
				if err := d.Terminate(info.ID); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if len(d.List()) != 0 {
		t.Fatal("instances leaked")
	}
}

func TestRegistry(t *testing.T) {
	r := DefaultRegistry()
	for _, name := range []string{"ec2", "eucalyptus", "grid5000", "nimbus", "opennebula", "rackspace", "stratuslab"} {
		if d, err := r.Get(name); err != nil || d.Name() != name {
			t.Fatalf("Get(%q) = %v, %v", name, d, err)
		}
	}
	if _, err := r.Get("azure"); err == nil {
		t.Fatal("unknown provider accepted")
	}
}
