// Command spequlos-load is the socket-level load harness for the SpeQuloS
// service stack: it boots all four modules behind the tiered auth gateway
// plus an emul-wire Desktop-Grid gateway on loopback TCP sockets, and
// drives them with concurrent tiered clients at a fixed request mix while
// the Scheduler's monitor loop ticks over the same socket.
//
//	spequlos-load -profile smoke
//	spequlos-load -profile stress
//
// The run reports p50/p95/p99 request latency per class, the
// unexpected-error rate, per-tier 429 throttling and Scheduler tick
// overrun, and exits 1 when it recorded any unexpected error (a transport
// error, or a status that is neither 2xx nor a deliberate 429), naming the
// first samples. It is a survival check, not a measurement: the service's
// performance record is bench/'s svc_poll and svc_lifecycle workloads.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"spequlos/internal/loadgen"
)

func main() {
	var (
		profile  = flag.String("profile", "smoke", "load profile: smoke or stress")
		clients  = flag.Int("clients", 0, "override: concurrent clients")
		duration = flag.Duration("duration", 0, "override: load window")
		verbose  = flag.Bool("v", false, "verbose progress to stderr")
	)
	flag.Parse()

	var cfg loadgen.Config
	switch *profile {
	case "smoke":
		cfg = loadgen.Smoke()
	case "stress":
		cfg = loadgen.Stress()
	default:
		fatal(fmt.Errorf("unknown profile %q (want smoke or stress)", *profile))
	}
	if *clients > 0 {
		cfg.Clients = *clients
	}
	if *duration > 0 {
		cfg.Duration = *duration
	}
	cfg.Verbose = *verbose

	start := time.Now()
	rep, err := loadgen.Run(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Print(rep.Summary())
	fmt.Printf("run wallclock: %.2fs\n", time.Since(start).Seconds())

	if err := rep.Gate(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "spequlos-load: %v\n", err)
	os.Exit(1)
}
