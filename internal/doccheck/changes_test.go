package doccheck

import (
	"os"
	"strings"
	"testing"
)

// maxChangesLine is the longest line CHANGES.md may hold. An entry is a
// headline and bullets — what changed, what moved, how to reproduce — and a
// bullet that needs more than this is two bullets.
const maxChangesLine = 2500

// TestChangesLineCap keeps CHANGES.md in that form: the entries of PRs 11–20
// were once single lines of 4 000–14 000 characters.
func TestChangesLineCap(t *testing.T) {
	doc, err := os.ReadFile("../../CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(string(doc), "\n") {
		if len(line) > maxChangesLine {
			t.Errorf("CHANGES.md:%d: %d characters (%.40q…), cap %d", i+1, len(line), line, maxChangesLine)
		}
	}
}

// maxExperimentsLines caps EXPERIMENTS.md. It says how to regenerate and
// read the evaluation; what a change measured, and how it was found, goes in
// that change's CHANGES.md entry.
const maxExperimentsLines = 800

// TestExperimentsLineCap keeps EXPERIMENTS.md a how-to: it had grown past
// 1000 lines of change history.
func TestExperimentsLineCap(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(doc), "\n"); n > maxExperimentsLines {
		t.Errorf("EXPERIMENTS.md has %d lines, cap %d: move history into CHANGES.md", n, maxExperimentsLines)
	}
}
