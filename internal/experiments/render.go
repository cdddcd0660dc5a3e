package experiments

import (
	"fmt"
	"strings"
)

// TextTable renders aligned fixed-width tables for terminal reports and
// EXPERIMENTS.md.
type TextTable struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row of already-formatted cells.
func (t *TextTable) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table.
func (t *TextTable) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title + "\n")
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

func f0(v float64) string { return fmt.Sprintf("%.0f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func pc(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
