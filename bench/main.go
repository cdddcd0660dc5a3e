// Command bench is the repository's one reproducible benchmark: six
// fixed-work workloads over the simulator and the deployable service, six
// end-to-end metrics every workload reports, and a per-layer ledger taken
// in a separate traced pass. See README.md in this directory.
//
// One workload, one run (what BENCHMARK.json's command does):
//
//	bench -workload tenants -seed 1 -seconds 10 -trace 0
//
// Every workload, each in its own child process, results under -out:
//
//	bench -seed 1 -out bench/out [-trace 1]
//
// Two result files or directories against the benchmark's bounds:
//
//	bench -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"
)

// processStart is when the process began, for setup_s.
var processStart = time.Now()

// runConfig is one run of one workload.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	// tiny shrinks every workload to smoke-test size (bench_test.go).
	tiny bool
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	run  func(runConfig) (outcome, error)
}

// workloads lists the six in the order they run. Each `why` is the reason
// BENCHMARK.json records.
func workloads() []workload {
	pick := func(untraced, traced func(runConfig) (outcome, error)) func(runConfig) (outcome, error) {
		return func(cfg runConfig) (outcome, error) {
			if cfg.trace {
				return traced(cfg)
			}
			return untraced(cfg)
		}
	}
	var ws []workload
	for _, w := range simWorkloads {
		ws = append(ws, workload{name: w.name, why: w.why, run: pick(w.runSim, w.runSimTraced)})
	}
	return append(ws,
		workload{name: "svc_poll", run: pick(runPoll, runPollTraced),
			why: "the service read path: nproc closed-loop clients poll 200 registered batches through the gate (60% status, 25% credit account, 15% DG progress); no tick runs; unit = 100000 successful requests"},
		workload{name: "svc_lifecycle", run: pick(runLifecycle, runLifecycleTraced),
			why: "the service write path and monitor loop: waves of 200 QoS orders, then 26 ticks on a virtual clock until every batch is triggered, billed, paid and finalized; unit = one wave"},
	)
}

// result is one run's outcome as written to -out and read by -compare. Its
// last-line form on standard output carries the contract's four keys.
type result struct {
	Workload  string                 `json:"workload,omitempty"`
	Seed      int64                  `json:"seed,omitempty"`
	Trace     bool                   `json:"trace,omitempty"`
	NProc     int                    `json:"nproc,omitempty"`
	GoVersion string                 `json:"go_version,omitempty"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Samples   map[string][]float64   `json:"samples,omitempty"`
	Failures  []string               `json:"failures,omitempty"`
	Notes     []string               `json:"notes,omitempty"`
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runOne runs one workload in this process.
func runOne(cfg runConfig) (result, error) {
	res := result{Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace,
		NProc: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	for _, w := range workloads() {
		if w.name != cfg.workload {
			continue
		}
		if err := os.MkdirAll(cfg.out, 0o755); err != nil {
			return res, err
		}
		out, err := w.run(cfg)
		if err != nil {
			return res, err
		}
		specs := endToEnd
		if cfg.trace {
			specs = perLayer
		}
		res.Metrics = emit(specs, out.values)
		res.Attempted, res.Failed = max(out.attempted, 1), out.failed
		res.Correct = out.failed == 0
		res.Failures, res.Notes, res.Samples = out.reasons, out.notes, out.samples
		return res, nil
	}
	return res, fmt.Errorf("unknown workload %q", cfg.workload)
}

// report prints a result for people, on standard error: every metric by
// name with its unit, and for the ledger what each number should move.
func report(res result) {
	pass := "untraced"
	specs := endToEnd
	if res.Trace {
		pass, specs = "traced", perLayer
	}
	fmt.Fprintf(os.Stderr, "== %s (%s pass, seed %d, nproc %d, %s)\n", res.Workload, pass, res.Seed, res.NProc, res.GoVersion)
	for _, s := range specs {
		m := res.Metrics[s.Name]
		line := fmt.Sprintf("  %-38s %14.6g %-8s", s.Name, m.Value, m.Unit)
		if s.Bound > 0 {
			line += fmt.Sprintf(" (%s is better, bound %.0f%%)", s.Better, s.Bound*100)
		}
		if s.Moves != "" {
			line += " -> " + s.Moves
		}
		fmt.Fprintln(os.Stderr, line)
	}
	ratio := float64(res.Failed) / float64(res.Attempted)
	fmt.Fprintf(os.Stderr, "  fail_ratio %g (%d failed of %d attempted)\n", ratio, res.Failed, res.Attempted)
	for _, n := range res.Notes {
		fmt.Fprintln(os.Stderr, "  note:", n)
	}
	for _, f := range res.Failures {
		fmt.Fprintln(os.Stderr, "  FAILED:", f)
	}
}

// printContractLine writes the last line of standard output: one JSON
// object with exactly the keys correct, attempted, failed and metrics.
func printContractLine(res result) error {
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload in this process (default: every workload, each in a child process)")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 10, "how long one run measures")
		trace   = flag.Int("trace", 0, "1 = the traced pass: per-layer metrics and a span file per workload")
		out     = flag.String("out", "bench/out", "directory for result, store and span files")
		compare = flag.Bool("compare", false, "compare two result files or directories: bench -compare base.json new.json")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace != 0, *out, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace bool, out string, compare bool, args []string) error {
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two result files or directories")
		}
		return compareResults(os.Stdout, args[0], args[1])
	}
	if name == "" {
		return runAll(seed, seconds, trace, out)
	}
	res, err := runOne(runConfig{workload: name, seed: seed, seconds: seconds, trace: trace, out: out})
	if err != nil {
		return err
	}
	report(res)
	if err := writeResult(out, res); err != nil {
		return err
	}
	if err := printContractLine(res); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d checks failed", name, res.Failed, res.Attempted)
	}
	return nil
}
