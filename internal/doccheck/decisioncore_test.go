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
// apart (a second implementation of a trigger or sizing rule), or a
// comparison against a tier's MaxActive or the policy's FleetCap (a second
// implementation of tier admission).
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
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
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
// included) switches or asserts on a core.Trigger or core.Sizing, or compares
// anything to MaxActive or FleetCap. Triggers, sizings, idle release and tier
// admission are computed by core.Oracle.Plan and core.TierPolicy.Admit on
// both sides of the wire; a second copy would start here.
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
			t.Error(leak)
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
}`
	file, err := parser.ParseFile(fset, "old.go", old, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	if got := decisionLeaks(fset, file); len(got) != 6 {
		t.Errorf("the guard found %d of the 6 leaks in the old service code: %v", len(got), got)
	}
}
