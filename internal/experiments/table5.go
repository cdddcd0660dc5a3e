package experiments

import (
	"fmt"

	"spequlos/internal/bot"
	"spequlos/internal/bridge"
	"spequlos/internal/cloud"
	"spequlos/internal/core"
	"spequlos/internal/middleware"
	"spequlos/internal/sim"
	"spequlos/internal/trace"
	"spequlos/internal/xwhep"
)

// Table5 reproduces the University Paris-XI slice of the EDGI
// infrastructure (§5, Fig 8): two XWHEP Desktop Grids — XW@LAL on the
// laboratory's local desktop machines, XW@LRI harvesting Grid'5000
// best-effort nodes (bounded to 200 at a time in the paper) — EGI tasks
// arriving through the 3G-Bridge, and SpeQuloS supporting each DG from a
// different cloud (a local StratusLab/OpenNebula for LAL, Amazon EC2 for
// LRI). The table reports the same counters as the paper: tasks executed
// per DG, EGI-originated tasks, and tasks SpeQuloS ran on each cloud.
type Table5 struct {
	LALTasks        int
	LRITasks        int
	EGITasks        int
	StratusLabTasks int
	EC2Tasks        int
	BoTs            int
	SimDays         float64
}

// cloudCounter counts completions attributed to cloud workers.
type cloudCounter struct{ n int }

func (c *cloudCounter) TaskAssigned(string, int, float64)  {}
func (c *cloudCounter) TaskCompleted(string, int, float64) {}
func (c *cloudCounter) BatchCompleted(string, float64)     {}
func (c *cloudCounter) TaskExecutedBy(_ string, _ int, w *middleware.Worker, _ float64) {
	if w != nil && w.Cloud {
		c.n++
	}
}

// completionCounter counts all completions on a server.
type completionCounter struct{ n int }

func (c *completionCounter) TaskAssigned(string, int, float64) {}
func (c *completionCounter) TaskCompleted(string, int, float64) {
	c.n++
}
func (c *completionCounter) BatchCompleted(string, float64) {}

// The EDGI simulation's window and the number of BoTs submitted over it.
const (
	table5Days = 4
	table5BoTs = 12
)

// BuildTable5 simulates the EDGI deployment over table5Days, submitting a
// stream of table5BoTs BoTs to both DGs and through the EGI bridge.
func BuildTable5(seed uint64) Table5 {
	horizon := table5Days * 86400.0
	eng := sim.NewEngine()

	// XW@LAL: the laboratory's local desktop grid. Notre-Dame-like
	// institutional desktop pool stands in for the LAL machines.
	lal := xwhep.New(eng, xwhep.DefaultConfig())
	lalTrace := trace.NotreDame.Generate(sim.SeedFrom("edgi", "lal", fmt.Sprint(seed)), horizon, 180)
	middleware.BindTrace(eng, lalTrace, lal)

	// XW@LRI: Grid'5000 best-effort nodes, bounded to 200 (§5).
	lri := xwhep.New(eng, xwhep.DefaultConfig())
	lriTrace := trace.G5KLyon.Generate(sim.SeedFrom("edgi", "lri", fmt.Sprint(seed)), horizon, 200)
	middleware.BindTrace(eng, lriTrace, lri)

	// The 3G-Bridge forwards EGI tasks onto XW@LAL.
	egi := bridge.New(lal)

	// SpeQuloS per DG, each with its supporting cloud.
	stratus := cloud.NewSimCloud(eng, sim.NewRNG(seed).Fork("stratuslab"))
	ec2 := cloud.NewSimCloud(eng, sim.NewRNG(seed).Fork("ec2"))
	cfg := core.Config{Strategy: core.DefaultStrategy(), MonitorPeriod: 60}
	svcLAL := core.NewService(eng, stratus, cfg)
	svcLRI := core.NewService(eng, ec2, cfg)

	lalDone, lriDone := &completionCounter{}, &completionCounter{}
	lalCloud, lriCloud := &cloudCounter{}, &cloudCounter{}
	lal.AddListener(lalDone)
	lal.AddListener(lalCloud)
	lri.AddListener(lriDone)
	lri.AddListener(lriCloud)

	// Submission stream: alternate LAL-native, LRI-native and EGI-bridged
	// BoTs, spread over the simulated window. DART/BNB-Grid/ISDEP-style
	// workloads are approximated by the RANDOM class.
	rng := sim.NewRNG(seed).Fork("edgi:submissions")
	classes := []string{"RANDOM", "BIG", "RANDOM"}
	var batchIDs []string
	for i := 0; i < table5BoTs; i++ {
		cls := mustClass(classes[i%len(classes)]).Scaled(0.05)
		id := fmt.Sprintf("edgi-bot-%02d", i)
		batchIDs = append(batchIDs, id)
		workload := cls.Generate(id, sim.SeedFrom("edgi", id))
		at := rng.Float64() * horizon * 0.4
		var svc *core.Service
		var target middleware.Server
		viaEGI := false
		switch i % 3 {
		case 0:
			svc, target = svcLAL, lal
		case 1:
			svc, target = svcLRI, lri
		case 2:
			svc, target, viaEGI = svcLAL, lal, true
		}
		svc2, target2 := svc, target
		eng.At(at, func() {
			env := "XWHEP/edgi/" + cls.Name
			credits := 0.10 * workload.WorkloadCPUHours() * core.CreditsPerCPUHour
			svc2.Credits.Deposit("edgi-user", credits)
			if err := svc2.RegisterQoS("edgi-user", id, env, workload.Size(), "", credits, target2); err != nil {
				panic(err)
			}
			if viaEGI {
				if err := egi.SubmitGridBatch("egi", middleware.BatchFromBoT(workload)); err != nil {
					panic(err)
				}
			} else {
				target2.Submit(middleware.BatchFromBoT(workload))
			}
		})
	}

	allDone := func() bool {
		for i, id := range batchIDs {
			var srv middleware.Server
			if i%3 == 1 {
				srv = lri
			} else {
				srv = lal
			}
			if !srv.Done(id) {
				return false
			}
		}
		return true
	}
	eng.RunWhile(func() bool { return !allDone() && eng.Now() <= horizon })

	t5 := Table5{
		LALTasks:        lalDone.n,
		LRITasks:        lriDone.n,
		StratusLabTasks: lalCloud.n,
		EC2Tasks:        lriCloud.n,
		BoTs:            table5BoTs,
		SimDays:         table5Days,
	}
	for _, st := range egi.StatsBySource() {
		t5.EGITasks += st.Completed
	}
	return t5
}

func mustClass(name string) bot.Class {
	c, ok := bot.ClassByName(name)
	if !ok {
		panic("experiments: unknown class " + name)
	}
	return c
}

// Render prints the Table 5 layout.
func (t Table5) Render() string {
	tbl := TextTable{
		Title: fmt.Sprintf("Table 5 — EDGI deployment counters (%d BoTs over %.0f simulated days)",
			t.BoTs, t.SimDays),
		Headers: []string{"XW@LAL", "XW@LRI", "EGI", "StratusLab", "EC2"},
	}
	tbl.AddRow(fmt.Sprint(t.LALTasks), fmt.Sprint(t.LRITasks), fmt.Sprint(t.EGITasks),
		fmt.Sprint(t.StratusLabTasks), fmt.Sprint(t.EC2Tasks))
	return tbl.String()
}
