package doccheck

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// strategyTypes are the Trigger and Sizing implementations of internal/core.
var strategyTypes = map[string]bool{
	"CompletionThreshold": true, "AssignmentThreshold": true, "ExecutionVariance": true,
	"CapacityAware": true, "Greedy": true, "Conservative": true,
	"Trigger": true, "Sizing": true, "CountDrivenTrigger": true,
}

// decisionLeaks reports where a file decides what only internal/core may
// decide: a type assertion or type switch that tells provisioning strategies
// apart (a second implementation of a trigger or sizing rule), a comparison
// against a tier's MaxActive or the policy's FleetCap or a call to the
// policy's Admit (a second tier admission, or a second place that orders it
// among a tick's steps), a call to a tick view's Execution (a second place
// that applies the archive rule), a call to a trigger's Floor or a use of a
// plan's Wait (a second place that decides when to skip the Oracle), a
// branch on a batch's Started, Exhausted or ReleaseIdle (a second apply step
// choosing between stopping and launching), a core.Sample built (a second
// place that turns a DG poll into a tick's sample), a call to a Monitor's
// Due or Run (a second place that picks a tick's batches), a call to a sim
// engine's NewTicker (a second schedule of when a Monitor steps), or a call
// to core.NewService (a second place that builds a cell's QoS side, around an
// engine of its own). Monitor.Run
// is the one Run with four arguments, so campaign.Run, Campaign.Run and
// sim.Engine.Run pass; sim.Engine.NewTicker is the one NewTicker with two, so
// time.NewTicker passes.
func decisionLeaks(fset *token.FileSet, file *ast.File) []string {
	var out []string
	report := func(n ast.Node, what string) {
		out = append(out, fmt.Sprintf("%s: %s", fset.Position(n.Pos()), what))
	}
	selector := func(e ast.Expr) string { // the last name of x.y.Name, or of Name
		switch e := e.(type) {
		case *ast.SelectorExpr:
			return e.Sel.Name
		case *ast.Ident:
			return e.Name
		}
		return ""
	}
	branchOn := func(cond ast.Expr) { // a condition that chooses a tick's apply step
		ast.Inspect(cond, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				switch sel.Sel.Name {
				case "Started", "Exhausted", "ReleaseIdle":
					report(sel, "branch on a batch's "+sel.Sel.Name)
				}
			}
			return true
		})
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			branchOn(n.Cond)
		case *ast.SwitchStmt:
			if n.Tag == nil {
				for _, c := range n.Body.List {
					for _, e := range c.(*ast.CaseClause).List {
						branchOn(e)
					}
				}
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				switch sel.Sel.Name {
				case "Admit":
					report(n, "call to a tier policy's Admit")
				case "Execution":
					report(n, "call to a tick view's Execution")
				case "Floor":
					if len(n.Args) == 0 { // math.Floor takes one
						report(n, "call to a trigger's Floor")
					}
				case "Due":
					report(n, "call to a Monitor's Due")
				case "Run":
					if len(n.Args) == 4 {
						report(n, "call to a Monitor's Run")
					}
				case "NewTicker":
					if len(n.Args) == 2 {
						report(n, "call to a sim engine's NewTicker")
					}
				case "NewService":
					if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "core" {
						report(n, "call to core.NewService")
					}
				}
			}
		case *ast.CompositeLit:
			if sel, ok := n.Type.(*ast.SelectorExpr); ok && sel.Sel.Name == "Sample" {
				if pkg, ok := sel.X.(*ast.Ident); ok && (pkg.Name == "core" || pkg.Name == "spequlos") {
					report(n, "a "+pkg.Name+".Sample built")
				}
			}
		case *ast.SelectorExpr:
			if n.Sel.Name == "Wait" && strings.EqualFold(selector(n.X), "plan") {
				report(n, "use of a plan's Wait")
			}
		case *ast.TypeAssertExpr:
			if n.Type == nil { // x.(type)
				if s := selector(n.X); s == "Trigger" || s == "Sizing" {
					report(n, "type switch over a strategy's "+s)
				}
			} else if strategyTypes[selector(n.Type)] {
				report(n, "type assertion to core."+selector(n.Type))
			}
		case *ast.CaseClause:
			for _, e := range n.List {
				if sel, ok := e.(*ast.SelectorExpr); ok && strategyTypes[sel.Sel.Name] {
					if pkg, ok := sel.X.(*ast.Ident); ok && (pkg.Name == "core" || pkg.Name == "spequlos") {
						report(e, "type switch case "+pkg.Name+"."+sel.Sel.Name)
					}
				}
			}
		case *ast.BinaryExpr:
			switch n.Op {
			case token.LSS, token.LEQ, token.GTR, token.GEQ:
				for _, side := range []ast.Expr{n.X, n.Y} {
					if sel, ok := side.(*ast.SelectorExpr); ok && (sel.Sel.Name == "MaxActive" || sel.Sel.Name == "FleetCap") {
						report(n, "comparison against "+sel.Sel.Name)
					}
				}
			}
		}
		return true
	})
	return out
}

// TestDecisionsLiveInCore is the one-decision-core guard: outside
// internal/core no non-test file of the repository (the bench module
// included) switches or asserts on a core.Trigger or core.Sizing, compares
// anything to MaxActive or FleetCap, calls a tier policy's Admit, a tick
// view's Execution or a trigger's Floor, uses a plan's Wait, branches on a
// batch's Started, Exhausted or ReleaseIdle, builds a core.Sample, calls a
// Monitor's Due or Run, or — outside internal/sim too — calls a sim engine's
// NewTicker, or — outside internal/campaign too — calls core.NewService. Triggers, sizings, idle release, tier admission, the archive
// rule and when to skip the Oracle are computed by core.Oracle.Plan,
// core.TierPolicy.Admit and core.Oracle.Archive, and ordered into a tick by
// core.Monitor.Run, which also builds each tick's samples, on both sides of
// the wire; which batches a tick steps, and that one tick runs at a time, is
// core.Monitor.Step's; when a Monitor on a simulation engine steps is
// core.Driver's; a simulated cell and its in-process QoS side are built by
// campaign's one executor; a second copy would start here.
func TestDecisionsLiveInCore(t *testing.T) {
	root := "../.."
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if name := d.Name(); rel == filepath.Join("internal", "core") || name == "testdata" ||
				name == "out" || (strings.HasPrefix(name, ".") && rel != ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		for _, leak := range decisionLeaks(fset, file) {
			// bench/micro.go times Admit by itself (core.admit_us): a
			// measurement of the decision, not a second place that takes it.
			// internal/sim is where a ticker is scheduled from, not a Monitor.
			// internal/campaign's executor is the one builder of a cell.
			if !(strings.HasPrefix(rel, "bench") && strings.HasSuffix(leak, "Admit")) &&
				!(strings.HasPrefix(rel, filepath.Join("internal", "sim")) && strings.HasSuffix(leak, "NewTicker")) &&
				!(strings.HasPrefix(rel, filepath.Join("internal", "campaign")) && strings.HasSuffix(leak, "core.NewService")) {
				t.Error(leak)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("only %d files scanned: the walk is not reaching the repository", files)
	}

	// Not vacuous: the shapes the service layer used to carry, a skip of the
	// Oracle decided in its Orders port, a sample built in its Sample port and
	// its own pick of a tick's batches, the emulation's own monitor ticker and
	// Table 5's private engine with its own core.Service are all caught;
	// math.Floor, BatchSample, the campaign's and the engine's Run, the
	// daemon's wall-clock ticker and a constructor of another package named
	// NewService are not.
	const old = `package service
func plan(o *core.Oracle, p *core.TierPolicy, active int) {
	switch tr := o.Strategy.Trigger.(type) {
	case core.CompletionThreshold:
		_ = tr
	}
	_, _ = o.Strategy.Sizing.(core.Greedy)
	if spec := p.Spec(""); spec.MaxActive > 0 && active >= spec.MaxActive {
	}
	_ = p.FleetCap <= 0
}
func (s *SchedulerService) admit(active map[core.Tier]int, cands []core.TierCandidate) {
	admitted := s.TierPolicy.Admit(0, active, cands)
	_ = admitted
}
func (s *SchedulerService) apply(tb *tickBatch, qb *schedBatch) {
	switch {
	case tb.progress.Done():
		s.finalize(qb)
	case qb.Exhausted:
		s.stopAll(qb)
	}
	if qb.ReleaseIdle {
		s.stopIdle(qb)
	}
	if tb.err == nil && !tb.qb.Started {
		s.launch(qb)
	}
	status := QoSStatus{Started: qb.Started, Exhausted: qb.Exhausted} // a report, not a branch
	_ = status
}
func (p *schedulerPorts) Archive(bs []*core.Batch) {
	for i, st := range p.info.Statuses(batchIDs(bs)) {
		if base, actual, ok := st.Status.Execution(); ok {
			p.record(bs[i], base, actual)
		}
	}
}
func (p *schedulerPorts) Sample(now float64, bs []*core.Batch) {
	for i, b := range bs {
		items[i] = BatchSample{BatchID: b.ID, Sample: core.Sample{T: now - b.RegisteredAt, Completed: b.Progress.Completed}}
	}
}
func (p *schedulerPorts) Orders(bs []*core.Batch) {
	frac, _ := p.strategy.Trigger.Floor()
	for _, b := range bs {
		if b.Progress.Completed < b.Plan.Wait.Completed || float64(b.Progress.Completed) < math.Floor(frac*100) {
			continue
		}
	}
}
func (s *SchedulerService) step(only string) error {
	due := s.mon.Due(nil)
	return s.mon.Run(unixSeconds(s.Now()), s.TierPolicy, due, &core.Scratch{})
}
func HTTPStack(eng *sim.Engine, cfg core.Config) {
	b.ticker = eng.NewTicker(cfg.MonitorPeriod, func(sim.Time) { b.do("monitor step", b.stack.Scheduler.Step) })
	t := time.NewTicker(period)
}
func run(c *campaign.Campaign, eng *sim.Engine, sc campaign.Scenario) {
	_ = campaign.Run(sc)
	_, _ = c.Run(context.Background(), nil)
	eng.Run()
}
func BuildTable5(seed uint64) {
	eng := sim.NewEngine()
	svcLAL := core.NewService(eng, stratus, cfg)
	_ = service.NewService(nil)
}`
	file, err := parser.ParseFile(fset, "old.go", old, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	if got := decisionLeaks(fset, file); len(got) != 18 {
		t.Errorf("the guard found %d of the 18 leaks in the old code: %v", len(got), got)
	}
}
