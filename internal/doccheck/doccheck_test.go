package doccheck

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// auditedDirs is the public API surface the doc audit covers: the root
// package, the campaign engine, the deployable service layer, the
// simulation kernel, and the experiment/emulation entry points. Every
// exported identifier in these packages must carry a godoc comment.
var auditedDirs = []string{
	".",                    // package spequlos (public API)
	"internal/campaign",    // campaign engine
	"internal/service",     // deployable HTTP service modules
	"internal/sim",         // discrete-event kernel
	"internal/core",        // SpeQuloS module logic
	"internal/middleware",  // DG middleware model
	"internal/experiments", // figure/table builders
	"internal/emul",        // emulation + conformance
	"internal/httprr",      // HTTP record/replay harness
	"internal/cloud",       // cloud drivers
	"internal/bot",         // workload classes
	"internal/trace",       // availability traces
	"internal/boinc",       // BOINC simulator
	"internal/xwhep",       // XWHEP simulator
	"internal/condor",      // Condor simulator
	"internal/metrics",     // tail metrics
	"internal/stats",       // distributions
	"internal/spot",        // spot-market traces
	"internal/plot",        // SVG charts
}

// TestExportedDocCoverage is the CI doc-lint gate: it fails on any exported
// identifier without a doc comment in the audited packages.
func TestExportedDocCoverage(t *testing.T) {
	vs, err := CheckDirs("../..", auditedDirs)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vs {
		t.Errorf("%s", v)
	}
	if len(vs) > 0 {
		t.Logf("%d exported identifiers lack doc comments", len(vs))
	}
}

// TestBulkWireTypesAudited pins that the request and reply types of the bulk
// routes are exported types of internal/service, a package the audit above
// covers: moving one to an unaudited package, or unexporting it, fails here
// rather than silently dropping it from the doc gate.
func TestBulkWireTypesAudited(t *testing.T) {
	audited := false
	for _, d := range auditedDirs {
		audited = audited || d == "internal/service"
	}
	if !audited {
		t.Fatal("internal/service is no longer audited")
	}
	pkgs, err := parser.ParseDir(token.NewFileSet(), "../service", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, pkg := range pkgs {
		for name, file := range pkg.Files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			ast.Inspect(file, func(n ast.Node) bool {
				if ts, ok := n.(*ast.TypeSpec); ok {
					declared[ts.Name.Name] = true
				}
				return true
			})
		}
	}
	for _, name := range []string{"BulkRequest", "BulkReply", "ItemResult", "BatchSample",
		"StatusResult", "BillItem", "BillResult", "OrderLookup", "PlanResult"} {
		if !declared[name] {
			t.Errorf("bulk wire type %s is not declared in internal/service", name)
		}
	}
}

// TestCheckDirFindsViolations proves the linter is not vacuous, using a
// fixture with deliberate gaps.
func TestCheckDirFindsViolations(t *testing.T) {
	vs, err := CheckDir("testdata/bad")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"Undocumented":        "func",
		"NoDocType":           "type",
		"NoDocConst":          "const",
		"NoDocType.NoDocMeth": "method",
	}
	got := map[string]string{}
	for _, v := range vs {
		got[v.Name] = v.Kind
	}
	for name, kind := range want {
		if got[name] != kind {
			t.Errorf("missing violation %s (%s); got %v", name, kind, got)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("false positive: %s", name)
		}
	}
}
