package doccheck

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportAllowlist names the exported internal/ functions and methods kept
// although no non-test code calls them, each with its reason. A package
// entry ("httprr") covers every export of that package; a method entry is
// "pkg.Type.Method".
var exportAllowlist = map[string]string{
	"stats.WeightedMedian":             "the reference the incremental α fit is tested against, bit for bit",
	"doccheck.CheckDirs":               "the exported-comment linter's entry point; its caller is this package's audit test",
	"httprr":                           "test-support API: record and replay of HTTP exchanges",
	"trace.ReadFTA":                    "reader for the Failure Trace Archive originals the generated traces are to be scored against",
	"trace.ReadCSV":                    "reader for the traces WriteCSV and cmd/tracegen write",
	"cloud.MockDriver.CostPerHour":     "the one reader of NewMockDriver's price, a parameter bench/ passes",
	"middleware.Frame.CheckInvariants": "the frame's invariant checker, run after every event by the middleware and boinc tests",
	"service.Routes.Patterns":          "the route table the wire-contract and wire-doc tests walk",
}

// exportScan is what one walk over a module tree collects.
type exportScan struct {
	fset *token.FileSet
	// decls are the exported functions and methods of non-test files under
	// internal/, keyed "pkgpath.Name" or "pkgpath.Type.Method".
	decls map[string]token.Pos
	// funcRefs holds "pkgpath.Name" for every qualified or in-package bare
	// reference; selectors holds every selector name (method calls match it).
	funcRefs, selectors, ifaceMethods map[string]bool
}

// scanExports parses every non-test .go file under root (testdata and hidden
// directories skipped), whose import paths are module + "/" + the directory.
func scanExports(t *testing.T, root, module string) *exportScan {
	t.Helper()
	s := &exportScan{fset: token.NewFileSet(), decls: map[string]token.Pos{},
		funcRefs: map[string]bool{}, selectors: map[string]bool{}, ifaceMethods: map[string]bool{}}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != root && (name == "testdata" || name == "out" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(s.fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, filepath.Dir(p))
		pkg := module
		if rel != "." {
			pkg = path.Join(module, filepath.ToSlash(rel))
		}
		s.addFile(file, pkg, strings.HasPrefix(filepath.ToSlash(rel)+"/", "internal/"))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func (s *exportScan) addFile(file *ast.File, pkg string, internal bool) {
	imports := map[string]string{}
	for _, im := range file.Imports {
		p, _ := strconv.Unquote(im.Path.Value)
		name := path.Base(p)
		if im.Name != nil {
			name = im.Name.Name
		}
		imports[name] = p
	}
	declNames := map[*ast.Ident]bool{}
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		declNames[fd.Name] = true
		if !internal || !fd.Name.IsExported() {
			continue
		}
		key := pkg + "." + fd.Name.Name
		if fd.Recv != nil && len(fd.Recv.List) > 0 {
			key = pkg + "." + receiverType(fd.Recv.List[0].Type) + "." + fd.Name.Name
		}
		s.decls[key] = fd.Name.Pos()
	}
	var visit func(ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.InterfaceType:
			for _, m := range n.Methods.List {
				for _, name := range m.Names {
					s.ifaceMethods[name.Name] = true
				}
			}
		case *ast.SelectorExpr:
			s.selectors[n.Sel.Name] = true
			if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
				s.funcRefs[imports[x.Name]+"."+n.Sel.Name] = true
				return false
			}
			ast.Inspect(n.X, visit) // not n.Sel: a field or method, not a bare name
			return false
		case *ast.Ident: // an in-package reference by plain identifier
			if !declNames[n] {
				s.funcRefs[pkg+"."+n.Name] = true
			}
		}
		return true
	}
	ast.Inspect(file, visit)
}

// uncalled returns the keys, short of "module/internal/", of the
// declarations nothing references, minus the allowlist, sorted.
func (s *exportScan) uncalled(module string, allow map[string]string) []string {
	var out []string
	for key := range s.decls {
		short := strings.TrimPrefix(key, module+"/internal/")
		_, listed := allow[short]
		_, pkgListed := allow[strings.SplitN(short, ".", 2)[0]]
		parts := strings.Split(short, ".")
		name := parts[len(parts)-1]
		switch {
		case listed || pkgListed:
		case len(parts) == 3: // a method
			if !s.selectors[name] && !s.ifaceMethods[name] {
				out = append(out, short)
			}
		case !s.funcRefs[key]:
			out = append(out, short)
		}
	}
	sort.Strings(out)
	return out
}

// TestInternalExportsHaveCallers fails on an exported function or method of
// a non-test file under internal/ that no non-test file of the tree (bench/
// and examples/ included) references. Code outside this module cannot import
// internal/ packages, so such a name is dead: delete it, together with the
// tests that only test it. Package-level functions match import-aware
// (pkg.Name, or a bare identifier inside the package); methods match by
// selector name anywhere, which never flags a method some code calls, and a
// method name declared in any interface is skipped.
func TestInternalExportsHaveCallers(t *testing.T) {
	if len(exportAllowlist) > 8 {
		t.Errorf("the allowlist has %d entries, cap 8: delete the code instead", len(exportAllowlist))
	}
	s := scanExports(t, "../..", "spequlos")
	if len(s.decls) < 200 {
		t.Fatalf("only %d exported internal functions found: the walk is not reaching the repository", len(s.decls))
	}
	for _, key := range s.uncalled("spequlos", exportAllowlist) {
		t.Errorf("%s: no non-test caller of %s", s.fset.Position(s.decls["spequlos/internal/"+key]), key)
	}
	for entry := range exportAllowlist {
		found := false
		for key := range s.decls {
			short := strings.TrimPrefix(key, "spequlos/internal/")
			found = found || short == entry || strings.HasPrefix(short, entry+".")
		}
		if !found {
			t.Errorf("allowlist entry %s names no exported internal function", entry)
		}
	}

	// Not vacuous: the fixture tree holds one dead function and one dead
	// method next to live, interface-declared and in-package-called ones.
	got := scanExports(t, "testdata/exports", "fixture").uncalled("fixture", nil)
	if want := []string{"dead.T.Unused", "dead.Unused"}; strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("fixture findings %v, want exactly %v", got, want)
	}
}
