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
// among a tick's steps), or a branch on a batch's Started, Exhausted or
// ReleaseIdle (a second apply step choosing between stopping and launching).
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
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Admit" {
				report(n, "call to a tier policy's Admit")
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
// anything to MaxActive or FleetCap, calls a tier policy's Admit, or branches
// on a batch's Started, Exhausted or ReleaseIdle. Triggers, sizings, idle
// release and tier admission are computed by core.Oracle.Plan and
// core.TierPolicy.Admit, and ordered into a tick by core.Monitor.Run, on both
// sides of the wire; a second copy would start here.
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
			if !(strings.HasPrefix(rel, "bench") && strings.HasSuffix(leak, "Admit")) {
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

	// Not vacuous: the shapes the service layer used to carry are all caught.
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
	if gw, ok := s.dg.(interface{ InstanceBusy(string) (bool, error) }); !ok || !qb.ReleaseIdle {
		_ = gw
	}
	if tb.err == nil && !tb.qb.Started {
		s.launch(qb)
	}
	status := QoSStatus{Started: qb.Started, Exhausted: qb.Exhausted} // a report, not a branch
	_ = status
}`
	file, err := parser.ParseFile(fset, "old.go", old, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	if got := decisionLeaks(fset, file); len(got) != 10 {
		t.Errorf("the guard found %d of the 10 leaks in the old service code: %v", len(got), got)
	}
}
