package doccheck

import (
	"go/ast"
	"go/parser"
	"go/token"
	"net/http"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"spequlos/internal/cloud"
	"spequlos/internal/core"
	"spequlos/internal/emul"
	"spequlos/internal/service"
)

var (
	routeRE    = regexp.MustCompile(`\b(GET|POST|PUT|PATCH|DELETE)\s+(/[^\s` + "`" + `|,]*)`)
	wildcardRE = regexp.MustCompile(`\{[^}.]*(\.\.\.)?\}`)
)

// routesIn returns the routes a text names, as "METHOD /path" with the
// wildcards' names dropped ({id} and {batch} are the same route), sorted.
func routesIn(text string) []string {
	var out []string
	for _, m := range routeRE.FindAllStringSubmatch(text, -1) {
		out = append(out, m[1]+" "+wildcardRE.ReplaceAllString(m[2], "{$1}"))
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// registeredRoutes is the route table of each module and of the DG gateway,
// read from the handlers their constructors return.
func registeredRoutes() map[string][]string {
	info := service.NewInformationClient("")
	handlers := map[string]http.Handler{
		"Information": service.NewInformationService(core.NewInformation()),
		"Credit":      service.NewCreditService(core.NewCreditSystem()),
		"Oracle":      service.NewOracleService(core.NewOracle(core.DefaultStrategy()), info),
		"Scheduler": service.NewSchedulerService(info, service.NewCreditClient(""), service.NewOracleClient(""),
			cloud.DefaultRegistry(), nil),
		"DG": emul.NewGatewayHandler(nil),
	}
	out := map[string][]string{}
	for name, h := range handlers {
		out[name] = routesIn(strings.Join(h.(interface{ Patterns() []string }).Patterns(), "\n"))
	}
	return out
}

// tableRoutes reads a markdown document's "Wire API" table: the routes of
// each module, a row without a module name continuing the one above.
func tableRoutes(doc string) map[string][]string {
	_, section, _ := strings.Cut(doc, "\n## Wire API of the four modules\n")
	section, _, _ = strings.Cut(section, "\n## ")
	out := map[string][]string{}
	module := ""
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 4 || strings.HasPrefix(cells[1], "---") || strings.TrimSpace(cells[1]) == "Module" {
			continue
		}
		if name := strings.TrimSpace(cells[1]); name != "" {
			module = name
		}
		out[module] = append(out[module], routesIn(cells[2])...)
	}
	for m := range out {
		slices.Sort(out[m])
	}
	return out
}

// commentRoutes reads the route list (the indented lines) of a declaration's
// doc comment in a Go file.
func commentRoutes(t *testing.T, file, decl string) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var doc *ast.CommentGroup
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Name.Name == decl {
				doc = d.Doc
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				if ts, ok := s.(*ast.TypeSpec); ok && ts.Name.Name == decl {
					doc = d.Doc
				}
			}
		}
	}
	if doc == nil {
		t.Fatalf("%s: no doc comment on %s", file, decl)
	}
	var list []string
	for _, line := range strings.Split(doc.Text(), "\n") {
		if strings.HasPrefix(line, "\t") {
			list = append(list, line)
		}
	}
	return routesIn(strings.Join(list, "\n"))
}

// routeDiff reports the documented routes that are not registered and the
// registered ones that are not documented.
func routeDiff(where string, documented, registered []string) (findings []string) {
	for _, r := range documented {
		if !slices.Contains(registered, r) {
			findings = append(findings, where+": documents "+r+", which is not a route")
		}
	}
	for _, r := range registered {
		if !slices.Contains(documented, r) {
			findings = append(findings, where+": does not document the route "+r)
		}
	}
	return findings
}

// TestWireAPIMatchesRoutes: a route is written in its constructor and twice
// in prose — the README's "Wire API" table and the route list in the doc
// comment of its module (or of NewGatewayHandler). Both lists equal the
// registered patterns, in both directions, up to the wildcards' names.
func TestWireAPIMatchesRoutes(t *testing.T) {
	registered := registeredRoutes()
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	table := tableRoutes(string(readme))
	var findings []string
	for _, m := range []string{"Information", "Credit", "Oracle", "Scheduler"} {
		findings = append(findings, routeDiff("README.md Wire API, "+m, table[m], registered[m])...)
		findings = append(findings, routeDiff(m+"Service doc comment",
			commentRoutes(t, "../service/"+strings.ToLower(m)+".go", m+"Service"), registered[m])...)
	}
	if len(table) != 4 {
		findings = append(findings, "README.md Wire API: the table names modules other than the four")
	}
	findings = append(findings, routeDiff("NewGatewayHandler doc comment",
		commentRoutes(t, "../emul/gateway.go", "NewGatewayHandler"), registered["DG"])...)
	for _, f := range findings {
		t.Error(f)
	}

	// Not vacuous: a copy of the table with one route renamed and one row
	// dropped is found out on exactly those two.
	stale, err := os.ReadFile("testdata/wireapi_stale.md")
	if err != nil {
		t.Fatal(err)
	}
	got := routeDiff("fixture", tableRoutes(string(stale))["Credit"], registered["Credit"])
	want := []string{
		"fixture: documents GET /balances/{}, which is not a route",
		"fixture: does not document the route GET /accounts/{}",
		"fixture: does not document the route POST /orders/lookup",
	}
	if !slices.Equal(got, want) {
		t.Errorf("stale fixture: findings %q, want %q", got, want)
	}
}
