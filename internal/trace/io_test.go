package trace

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadCSV feeds ReadCSV arbitrary text. Whatever it accepts must pass
// Validate, let MeasureStats return, and come back unchanged through
// WriteCSV and ReadCSV. The sampling step is a 64th of the trace length:
// the grid stays small at any length, so what is exercised is the values
// ReadCSV lets through, not the grid's size.
func FuzzReadCSV(f *testing.F) {
	f.Add("node_id,power,start,end\n0,1,0,10\n0,1,20,30\n1,2.5,5,15\n")
	f.Add("3,1000,40,50\n3,1000,0,10\n1,7,0,1e5\n")
	f.Add("0,1,0,inf\n")
	f.Add("0,NaN,0,10\n")
	f.Add("0,1,0,10\n0,2,20,30\n")
	f.Add("0,1,-0,0.1\n")
	f.Fuzz(func(t *testing.T, text string) {
		tr, err := ReadCSV(bytes.NewBufferString(text), "fuzz")
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("ReadCSV accepted a trace Validate refuses: %v", err)
		}
		tr.MeasureStats(tr.Length / 64)

		var buf bytes.Buffer
		if err := tr.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		written := buf.String()
		back, err := ReadCSV(&buf, tr.Name)
		if err != nil {
			t.Fatalf("ReadCSV refused what WriteCSV wrote: %v\n%s", err, written)
		}
		if !reflect.DeepEqual(back, tr) {
			t.Fatalf("round trip changed the trace written as:\n%s", written)
		}
	})
}
