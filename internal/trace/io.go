package trace

import (
	"encoding/csv"
	"io"
	"strconv"
)

// WriteCSV serializes a trace in the event-list format used by the Failure
// Trace Archive tooling: one row per availability interval,
//
//	node_id,power,start,end
//
// preceded by that header row. Nodes come in trace order, each node's
// periods in time order, and every number in the shortest 'g' form that
// reads back to the same float64; a node without periods writes no row. It
// draws an open trace to its end. tracegen -csv writes it for external
// tools: nothing in this repository reads a trace file back.
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
