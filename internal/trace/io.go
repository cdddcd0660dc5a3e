package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// WriteCSV serializes a trace in the event-list format used by the Failure
// Trace Archive tooling: one row per availability interval,
//
//	node_id,power,start,end
//
// preceded by a comment-free header row. tracegen -csv writes it, and
// ReadCSV reads it back into a Trace that passes Validate. No campaign and
// no command reads a trace file: every cell draws its trace from a
// generator, so a converted FTA trace is usable only from Go code.
func (t *Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"node_id", "power", "start", "end"}); err != nil {
		return err
	}
	ff := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, n := range t.Nodes {
		for _, iv := range n.all() {
			if err := cw.Write([]string{strconv.Itoa(n.ID), ff(n.Power), ff(iv.Start), ff(iv.End)}); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses the format written by WriteCSV. Rows may appear in any
// order; intervals are sorted per node, and every row of a node must give
// the same power. The trace length is the maximum interval end unless the
// caller overrides Trace.Length afterwards. The result passes Validate.
func ReadCSV(r io.Reader, name string) (*Trace, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("trace: reading csv: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("trace: empty csv")
	}
	if rows[0][0] == "node_id" {
		rows = rows[1:]
	}
	nodes := map[int]*Node{}
	var length float64
	for i, row := range rows {
		if len(row) != 4 {
			return nil, fmt.Errorf("trace: row %d has %d fields, want 4", i+1, len(row))
		}
		id, err := strconv.Atoi(row[0])
		if err != nil {
			return nil, fmt.Errorf("trace: row %d node_id: %w", i+1, err)
		}
		power, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: row %d power: %w", i+1, err)
		}
		start, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: row %d start: %w", i+1, err)
		}
		end, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: row %d end: %w", i+1, err)
		}
		n, ok := nodes[id]
		if !ok {
			n = &Node{ID: id, Power: power}
			nodes[id] = n
		} else if power != n.Power {
			return nil, fmt.Errorf("trace: row %d gives node %d power %g, an earlier row %g", i+1, id, power, n.Power)
		}
		n.Intervals = append(n.Intervals, Interval{Start: start, End: end})
		if end > length {
			length = end
		}
	}
	tr := &Trace{Name: name, Length: length}
	ids := make([]int, 0, len(nodes))
	for id := range nodes {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		n := nodes[id]
		sort.Slice(n.Intervals, func(i, j int) bool { return n.Intervals[i].Start < n.Intervals[j].Start })
		tr.Nodes = append(tr.Nodes, n)
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}
