package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs every workload, both passes, at tiny size, and asserts
// that every metric BENCHMARK.json names comes out finite (and every
// end-to-end metric non-zero), that all checks pass, that a span file is
// written, and that comparing the results with themselves passes.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	var all []result
	for _, w := range workloads() {
		for _, trace := range []bool{false, true} {
			res, err := runOne(runConfig{workload: w.name, seed: 1, seconds: 0.5, trace: trace, out: out, tiny: true})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct %v, %d failed of %d: %v", w.name, trace, res.Correct, res.Failed, res.Attempted, res.Failures)
			}
			specs := endToEnd
			if trace {
				specs = perLayer
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(specs))
			}
			for _, s := range specs {
				m, ok := res.Metrics[s.Name]
				if !ok || m.Unit != s.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v)", w.name, trace, s.Name, m, ok)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, must be positive", w.name, s.Name, m.Value)
				}
				if trace && s.Micro && m.Value <= 0 {
					t.Errorf("%s: micro metric %s = %g, must be positive", w.name, s.Name, m.Value)
				}
			}
			if trace {
				if _, err := os.Stat(filepath.Join(out, "trace-"+w.name+".json")); err != nil {
					t.Errorf("%s: no span file: %v", w.name, err)
				}
			}
			all = append(all, res)
		}
	}
	buf, err := json.Marshal(all)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(out, "results.json")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	var table bytes.Buffer
	if err := compareResults(&table, path, path); err != nil {
		t.Errorf("comparing a result file with itself: %v\n%s", err, table.String())
	}
	if strings.Contains(table.String(), "WORSE") || strings.Contains(table.String(), "DIFFERS") {
		t.Errorf("self-comparison has a WORSE or DIFFERS row:\n%s", table.String())
	}
}

// TestCompareFlagsWorse: a metric past its bound fails the comparison, one
// inside it passes, and a noisy base makes it unresolved.
func TestCompareFlagsWorse(t *testing.T) {
	dir := t.TempDir()
	write := func(sub, name string, wall float64) {
		res := []result{{Workload: "churn", Correct: true, Attempted: 1,
			Metrics: map[string]metricValue{"wall_s": {Value: wall, Unit: "s"}}}}
		buf, _ := json.Marshal(res)
		os.MkdirAll(filepath.Join(dir, sub), 0o755)
		if err := os.WriteFile(filepath.Join(dir, sub, name), buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("base", "results-1.json", 1.00)
	write("ok", "results-1.json", 1.05)
	write("slow", "results-1.json", 1.40)
	for _, n := range []string{"results-1.json", "results-2.json", "results-3.json"} {
		write("noisy", n, 1.0+0.3*float64(n[8]-'1'))
	}
	var sink bytes.Buffer
	if err := compareResults(&sink, filepath.Join(dir, "base"), filepath.Join(dir, "ok")); err != nil {
		t.Errorf("5%% slower is inside the 25%% bound: %v", err)
	}
	if err := compareResults(&sink, filepath.Join(dir, "base"), filepath.Join(dir, "slow")); err == nil {
		t.Error("40% slower must be WORSE")
	}
	sink.Reset()
	if err := compareResults(&sink, filepath.Join(dir, "noisy"), filepath.Join(dir, "slow")); err != nil || !strings.Contains(sink.String(), "UNRESOLVED") {
		t.Errorf("a base spreading 46%% must read UNRESOLVED (err %v):\n%s", err, sink.String())
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the tables here.
func TestBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(spec.Workloads), len(ws))
	}
	for i, w := range ws {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, want %s: %s", i, spec.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	check := func(kind string, got []metric, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
		}
		for i, s := range want {
			if g := got[i]; g.Name != s.Name || g.Unit != s.Unit || g.Better != s.Better || g.Bound != s.Bound {
				t.Errorf("%s %d: %+v, want %s %s %s %g", kind, i, g, s.Name, s.Unit, s.Better, s.Bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if spec.EndToEnd[0].Name != "setup_s" {
		t.Error("setup_s must be reported")
	}
}

// TestSelfSeconds: overlapping children cover their union once.
func TestSelfSeconds(t *testing.T) {
	r := newRecorder("t")
	at := func(ms int) time.Time { return r.origin.Add(time.Duration(ms) * time.Millisecond) }
	r.add(0, "root", at(0), at(100)) // id 1
	r.add(1, "a", at(10), at(60))
	r.add(1, "b", at(40), at(90))
	self := r.selfSeconds()
	if math.Abs(self["root"]-0.020) > 1e-9 || math.Abs(self["a"]-0.050) > 1e-9 || math.Abs(self["b"]-0.050) > 1e-9 {
		t.Errorf("self times %v, want root 0.020 a 0.050 b 0.050", self)
	}
}
