package doccheck

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// docCommand is one command of a fenced sh block that names a ./cmd/<name>
// package: the binary, the flags passed to it (only a `go run` passes any)
// and where the command starts.
type docCommand struct {
	line  int
	cmd   string
	flags []string
}

// docCommands extracts the commands naming ./cmd/<name> from the fenced sh
// blocks of a markdown document. Backslash continuations are joined, a
// trailing # comment is dropped, and a line is split at && | and ; so each
// command is looked at alone.
func docCommands(doc string) []docCommand {
	var out []docCommand
	inSh, pending, start := false, "", 0
	for i, line := range strings.Split(doc, "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "```"); ok {
			inSh = !inSh && rest == "sh"
			pending = ""
			continue
		}
		if !inSh {
			continue
		}
		if pending == "" {
			start = i + 1
		}
		code, _, _ := strings.Cut(line, " #")
		code = strings.TrimSpace(code)
		pending += strings.TrimSuffix(code, `\`) + " "
		if strings.HasSuffix(code, `\`) {
			continue
		}
		for _, part := range strings.FieldsFunc(pending, func(r rune) bool { return r == '|' || r == ';' || r == '&' }) {
			words := strings.Fields(part)
			goRun := len(words) > 2 && words[0] == "go" && words[1] == "run"
			for k, w := range words {
				name, ok := strings.CutPrefix(w, "./cmd/")
				if !ok || name == "..." {
					continue
				}
				c := docCommand{line: start, cmd: name}
				if goRun {
					c.flags = flagNames(words[k+1:])
				}
				out = append(out, c)
				if goRun {
					break // the rest of the line is the binary's arguments
				}
			}
		}
		pending = ""
	}
	return out
}

// flagNames returns the flags among a binary's arguments, without dashes and
// without an =value; a negative number is a value, not a flag.
func flagNames(args []string) []string {
	var names []string
	for _, arg := range args {
		name := strings.TrimLeft(arg, "-")
		if _, err := strconv.ParseFloat(arg, 64); err == nil || name == arg || name == "" {
			continue
		}
		name, _, _ = strings.Cut(name, "=")
		names = append(names, name)
	}
	return names
}

// definedFlags collects, without running anything, the flags a command
// defines on the default flag set: the name argument of every flag.<Type>
// and flag.<Type>Var call in the non-test files of its directory.
func definedFlags(dir string) (map[string]bool, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	flags := map[string]bool{"h": true, "help": true} // package flag's own
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "flag" {
					return true
				}
				arg := 0
				if strings.HasSuffix(sel.Sel.Name, "Var") {
					arg = 1 // flag.IntVar(&v, "name", …), flag.Var(v, "name", …)
				}
				if arg < len(call.Args) {
					if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
						if name, err := strconv.Unquote(lit.Value); err == nil {
							flags[name] = true
						}
					}
				}
				return true
			})
		}
	}
	return flags, nil
}

// checkDocCommands reports every one of a document's commands that names a cmd/
// directory that does not exist under root, or passes its binary a flag the
// binary does not define. It returns the number of commands it looked at.
func checkDocCommands(root, docName string, cmds []docCommand) (findings []string, commands int) {
	defined := map[string]map[string]bool{}
	for _, c := range cmds {
		commands++
		dir := filepath.Join(root, "cmd", c.cmd)
		if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
			findings = append(findings, fmt.Sprintf("%s:%d: ./cmd/%s does not exist", docName, c.line, c.cmd))
			continue
		}
		if defined[c.cmd] == nil {
			flags, err := definedFlags(dir)
			if err != nil {
				findings = append(findings, fmt.Sprintf("%s:%d: parsing cmd/%s: %v", docName, c.line, c.cmd, err))
				continue
			}
			defined[c.cmd] = flags
		}
		for _, f := range c.flags {
			if !defined[c.cmd][f] {
				findings = append(findings, fmt.Sprintf("%s:%d: %s defines no flag -%s", docName, c.line, c.cmd, f))
			}
		}
	}
	return findings, commands
}

// binaryNamed returns the first word of a command that is one of the
// binaries — bare, as ./name or as ./cmd/name — as its index and the binary's
// name, or -1.
func binaryNamed(words []string, binaries map[string]map[string]bool) (int, string) {
	for i, w := range words {
		if name := strings.TrimPrefix(strings.TrimPrefix(w, "./"), "cmd/"); binaries[name] != nil {
			return i, name
		}
	}
	return -1, ""
}

// checkProseFlags reports the flags a document's prose gives a binary that
// the binary does not define. Prose is read one paragraph or list item at a
// time, fenced blocks left out; in one that names a binary in a code span, a
// span that runs the binary (`name -flag …`) is checked against it, and a
// span that is only flags (`-flag`, `-flag value -other`) against every binary
// the paragraph names. Spans that run anything else are not looked at.
func checkProseFlags(docName, doc string, binaries map[string]map[string]bool) (findings []string) {
	var block []string
	start := 0
	flush := func() {
		var named []string
		var bare []string // flags of spans that are only flags
		for i, span := range strings.Split(strings.Join(block, " "), "`") {
			words := strings.Fields(span)
			if i%2 == 0 || len(words) == 0 {
				continue // outside a code span
			}
			if k, name := binaryNamed(words, binaries); k >= 0 {
				named = append(named, name)
				for _, f := range flagNames(words[k+1:]) {
					if !binaries[name][f] {
						findings = append(findings, fmt.Sprintf("%s:%d: %s defines no flag -%s", docName, start, name, f))
					}
				}
			} else if strings.HasPrefix(words[0], "-") {
				for _, w := range words {
					// `-a`/`-b` and `-profile x|y` are flags and values.
					bare = append(bare, flagNames(strings.Split(w, "/"))...)
				}
			}
		}
		for _, f := range bare {
			ok := len(named) == 0
			for _, name := range named {
				ok = ok || binaries[name][f]
			}
			if !ok {
				findings = append(findings, fmt.Sprintf("%s:%d: %s defines no flag -%s", docName, start, strings.Join(named, ", "), f))
			}
		}
		block = block[:0]
	}
	fenced := false
	for i, line := range strings.Split(doc, "\n") {
		trimmed := strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(trimmed, "```"):
			fenced = !fenced
			flush()
			continue
		case fenced:
			continue
		case trimmed == "" || strings.HasPrefix(line, "- "):
			flush()
		}
		if len(block) == 0 {
			start = i + 1
		}
		block = append(block, trimmed)
	}
	flush()
	return findings
}

// packageCommentCommands returns the indented command lines of the package
// comment of cmd/<name>/main.go that run the binary itself.
func packageCommentCommands(root, name string) ([]docCommand, error) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, filepath.Join(root, "cmd", name, "main.go"), nil,
		parser.ParseComments|parser.PackageClauseOnly)
	if err != nil || file.Doc == nil {
		return nil, err
	}
	var out []docCommand
	for _, c := range file.Doc.List {
		// An indented line of a // comment is preformatted text.
		line, ok := strings.CutPrefix(c.Text, "//\t")
		if words := strings.Fields(line); ok && len(words) > 0 && words[0] == name {
			out = append(out, docCommand{line: fset.Position(c.Pos()).Line, cmd: name, flags: flagNames(words[1:])})
		}
	}
	return out, nil
}

// TestDocCommandsMatchBinaries fails when a document runs a ./cmd/<name> that
// does not exist or gives a binary a flag it does not define: flags come and
// go (PR 18 alone removed eight) and nothing else checks that the documents
// followed. It reads the fenced sh commands of README.md and EXPERIMENTS.md,
// the flags README.md's prose gives a binary it names, and the command lines
// in each binary's own package comment. Fix the document, not this test.
func TestDocCommandsMatchBinaries(t *testing.T) {
	root := "../.."
	dirs, err := os.ReadDir(filepath.Join(root, "cmd"))
	if err != nil {
		t.Fatal(err)
	}
	binaries := map[string]map[string]bool{}
	for _, d := range dirs {
		if binaries[d.Name()], err = definedFlags(filepath.Join(root, "cmd", d.Name())); err != nil {
			t.Fatal(err)
		}
	}
	total := 0
	check := func(docName string, cmds []docCommand) {
		findings, n := checkDocCommands(root, docName, cmds)
		for _, f := range findings {
			t.Error(f)
		}
		total += n
	}
	for _, name := range []string{"README.md", "EXPERIMENTS.md"} {
		doc, err := os.ReadFile(filepath.Join(root, name))
		if err != nil {
			t.Fatal(err)
		}
		check(name, docCommands(string(doc)))
		if name == "README.md" {
			for _, f := range checkProseFlags(name, string(doc), binaries) {
				t.Error(f)
			}
		}
	}
	if total < 10 {
		t.Fatalf("only %d commands found: the sh blocks are not being read", total)
	}
	inComments := total
	for name := range binaries {
		cmds, err := packageCommentCommands(root, name)
		if err != nil {
			t.Fatal(err)
		}
		check("cmd/"+name+"/main.go", cmds)
	}
	if total-inComments < 3 {
		t.Fatalf("only %d commands found in package comments: they are not being read", total-inComments)
	}

	// Not vacuous: a flag PR 18 removed, a binary that never existed, a flag
	// after a continuation and one behind a pipe are all caught; a negative
	// number, a build line's other packages and a non-sh block are not.
	stale := "```sh\n" +
		"go run ./cmd/spequlos-bench -profile quick -bench-json out.json   # removed\n" +
		"go run ./cmd/spequlos-sim -profile quick \\\n    -explain\n" +
		"go run ./cmd/spequlos-view -out x\n" +
		"cat x | go run ./cmd/tracegen --days=3 -csvs y\n" +
		"go run ./cmd/spequlos-load -clients -1 -duration 0s\n" +
		"go build -o /tmp/bin/ ./cmd/spequlos-bench ./cmd/spequlos-sim\n" +
		"```\n```\ngo run ./cmd/nothing -x\n```\n"
	want := []string{
		"doc.md:2: spequlos-bench defines no flag -bench-json",
		"doc.md:3: spequlos-sim defines no flag -explain",
		"doc.md:5: ./cmd/spequlos-view does not exist",
		"doc.md:6: tracegen defines no flag -csvs",
	}
	got, n := checkDocCommands(root, "doc.md", docCommands(stale))
	if n != 7 || strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("on the stale document: %d commands, findings\n%s\nwant 7 commands and\n%s",
			n, strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	// Nor in prose: the daemon flag README.md advertised for years without
	// the daemon defining it, a flag of the wrong binary, and a flag inside a
	// span that runs the binary are caught; flags in a paragraph that names no
	// binary, another tool's flags, and a fenced block are left alone.
	staleProse := "- **`spequlosd`** — a demo DG gateway, or `-dg-url` for a real\n" +
		"  adapter; `-keys\n  keys.json -rate N` gates it, `-cpuprofile`/`-period` too.\n" +
		"\nRun `spequlos-sim -emulate -explain` or `bash bench/run.sh -seed 1`.\n" +
		"\nPass `-anything` here.\n```sh\nspequlosd -nope\n```\n"
	want = []string{
		"doc.md:1: spequlosd defines no flag -dg-url",
		"doc.md:1: spequlosd defines no flag -cpuprofile",
		"doc.md:4: spequlos-sim defines no flag -explain",
	}
	if got := checkProseFlags("doc.md", staleProse, binaries); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("on the stale prose: findings\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
