package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
)

// resultPath is where a run leaves its result for the parent process.
func resultPath(out, workload string, trace bool) string {
	pass := "untraced"
	if trace {
		pass = "traced"
	}
	return filepath.Join(out, fmt.Sprintf("result-%s-%s.json", workload, pass))
}

func writeResult(out string, res result) error {
	buf, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(resultPath(out, res.Workload, res.Trace), buf, 0o644)
}

func readResult(path string) (result, error) {
	var res result
	buf, err := os.ReadFile(path)
	if err != nil {
		return res, err
	}
	return res, json.Unmarshal(buf, &res)
}

// runChild re-executes this binary for one (workload, pass), so peak memory
// is per workload and no heap or trace-cache state leaks between workloads.
// The child's report goes to standard error; its result comes back through
// the file it writes.
func runChild(workload string, seed int64, seconds float64, trace bool, out string) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	t := 0
	if trace {
		t = 1
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(t), "-out", out)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	res, err := readResult(resultPath(out, workload, trace))
	if err != nil {
		if runErr != nil {
			return res, fmt.Errorf("%s: %w", workload, runErr)
		}
		return res, fmt.Errorf("%s: reading result: %w", workload, err)
	}
	return res, nil // an incorrect run is reported through res.Correct
}

// runAll runs every workload untraced, then (with -trace 1) traced, writes
// all results to <out>/results.json, and fails if any check failed.
func runAll(seed int64, seconds float64, trace bool, out string) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	var all []result
	incorrect := 0
	for _, w := range workloads() {
		res, err := runChild(w.name, seed, seconds, false, out)
		if err != nil {
			return err
		}
		all = append(all, res)
		if !res.Correct {
			incorrect++
		}
		if !trace {
			continue
		}
		traced, err := runChild(w.name, seed, seconds, true, out)
		if err != nil {
			return err
		}
		all = append(all, traced)
		if !traced.Correct {
			incorrect++
		}
		// Both are the time of one typical unit of work in reference
		// seconds, with and without spans: wall_s is the faster half of the
		// units, so the untraced side is rescaled to their median.
		units := res.Samples["wall_s"]
		plain := res.Metrics["wall_s"].Value * median(units) / fasterHalf(units)
		spans := traced.Metrics["bench.traced_wall_s"].Value
		fmt.Fprintf(os.Stderr, "== %s: tracing overhead %+.4f s on %.4f s untraced (%+.1f%%), %.0f%% of the traced unit attributed\n",
			w.name, spans-plain, plain, (spans-plain)/plain*100, traced.Metrics["bench.attributed_ratio"].Value*100)
	}
	buf, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(out, "results.json")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "results written to", path)
	if incorrect > 0 {
		return fmt.Errorf("%d runs failed their correctness checks", incorrect)
	}
	return nil
}
