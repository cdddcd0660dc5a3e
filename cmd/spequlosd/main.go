// Command spequlosd runs the SpeQuloS service daemon: the Information,
// Credit System, Oracle and Scheduler modules as one service.Stack on the
// -addr listener (they can equally be split across hosts; every module only
// talks to the others through their HTTP APIs, here at the address the
// listener got).
//
//	spequlosd -addr :8080 -strategy 9C-C-R -period 1m
//
// Routes:
//
//	/information/…   monitoring archive
//	/credit/…        accounts, orders, billing
//	/oracle/…        predictions, provisioning plans, calibration
//	/scheduler/…     QoS registration, monitor loop, instances
//	/healthz
//
// The daemon's Desktop Grid is emul.WallDG, whose batches progress linearly
// over wall time (-demo-duration) and whose workers are always busy. Driving
// a real DG means giving the stack a service.DGGateway written against the
// BOINC/XWHEP server's status API; the daemon has no flag for one. The same
// stack over the same DG, gated and under tiered load on real sockets, is
// internal/service's TestStackSurvivesTieredLoad.
//
// To drive these same four modules from a fully simulated Desktop Grid —
// a BOINC/XWHEP/Condor batch generated from the paper's availability
// traces, on a virtual clock, with launches turning into simulated cloud
// workers — use the emulation harness instead of the daemon: internal/emul
// hosts the stack behind the same DGGateway HTTP wire format (POST
// /progress-batch, GET /busy/{instance}, GET /worker-url), and `spequlos-sim
// -emulate` reports whether the stack's decisions match the in-process
// simulator cell by cell.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"path/filepath"
	"time"

	"spequlos/internal/campaign"
	"spequlos/internal/core"
	"spequlos/internal/emul"
	"spequlos/internal/service"
)

// options are the daemon's flags.
type options struct {
	strategy string
	period   time.Duration
	demoDur  time.Duration
	stateDir string
	tiered   bool
	fleetCap int
	keysFile string
	rate     float64
}

func main() {
	var o options
	addr := flag.String("addr", ":8080", "listen address")
	flag.StringVar(&o.strategy, "strategy", "9C-C-R", "provisioning strategy combination")
	flag.DurationVar(&o.period, "period", time.Minute, "scheduler monitor period")
	flag.DurationVar(&o.demoDur, "demo-duration", 10*time.Minute, "demo DG: time a batch takes to complete")
	flag.StringVar(&o.stateDir, "state-dir", "", "directory for JSON state snapshots (empty = in-memory only)")
	flag.BoolVar(&o.tiered, "tiers", false, "enable the enterprise/premium/free tier admission policy")
	flag.IntVar(&o.fleetCap, "fleet-cap", 0, "with -tiers: max batches holding cloud support at once (0 = unlimited)")
	flag.StringVar(&o.keysFile, "keys", "", "JSON API-key file ([{key,user,tier,unlimited}...]); enables gateway auth + per-tier rate limits")
	flag.Float64Var(&o.rate, "rate", 100, "with -keys: total request rate (req/s) shared across tiers by policy weight")
	flag.Parse()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("spequlosd: %v", err)
	}
	d, err := start(ln, o)
	if err != nil {
		log.Fatalf("spequlosd: %v", err)
	}
	defer d.Close()
	if err := d.Wait(); err != nil {
		log.Fatalf("spequlosd: %v", err)
	}
}

// daemon is a running spequlosd: the service stack, its monitor loop and,
// with a state directory, its snapshot loop.
type daemon struct {
	*service.Stack
	stop chan struct{}
}

// start serves the stack on ln and starts the daemon's loops.
func start(ln net.Listener, o options) (*daemon, error) {
	st, err := core.StrategyByLabel(o.strategy)
	if err != nil {
		return nil, err
	}
	var policy *core.TierPolicy
	if o.tiered {
		policy = core.DefaultTierPolicy()
		policy.FleetCap = o.fleetCap
	}
	var km *service.KeyManager
	if o.keysFile != "" {
		keys, err := loadKeys(o.keysFile)
		if err != nil {
			return nil, err
		}
		limits := policy
		if limits == nil {
			limits = core.DefaultTierPolicy()
		}
		km = service.NewKeyManager(service.LimitsFromPolicy(limits, o.rate))
		for _, k := range keys {
			km.Add(k)
		}
		log.Printf("spequlosd: gateway auth enabled (%d keys, %.0f req/s shared by tier weight)", len(keys), o.rate)
	}

	information, creditSystem, calibration := loadState(o.stateDir)
	stack, err := service.NewStack(service.StackConfig{
		Strategy:    st,
		DG:          emul.NewWallDG(o.demoDur, fmt.Sprintf("http://demo-dg.local/%d", o.demoDur/time.Second)),
		Information: information, Credits: creditSystem, Calibration: calibration,
		Keys:     km,
		Listener: ln,
	})
	if err != nil {
		return nil, err
	}
	stack.Scheduler.TierPolicy = policy
	log.Printf("spequlosd listening on %s (strategy %s, demo DG %v/batch)", ln.Addr(), st.Label(), o.demoDur)

	d := &daemon{Stack: stack, stop: make(chan struct{})}
	go stack.Scheduler.Run(o.period, d.stop)
	if o.stateDir != "" {
		go snapshotLoop(o.stateDir, o.period, information, creditSystem, calibration, d.stop)
	}
	return d, nil
}

// Close stops the loops and the stack.
func (d *daemon) Close() {
	close(d.stop)
	d.Stack.Close()
}

// loadKeys reads a JSON API-key file: an array of service.APIKey objects.
func loadKeys(path string) ([]service.APIKey, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var keys []service.APIKey
	if err := json.NewDecoder(f).Decode(&keys); err != nil {
		return nil, fmt.Errorf("key file %s: %w", path, err)
	}
	for _, k := range keys {
		if _, err := core.ParseTier(string(k.Tier)); err != nil {
			return nil, fmt.Errorf("key file %s: key %q: %w", path, k.User, err)
		}
	}
	return keys, nil
}

// loadState restores module state from JSON snapshots (the MySQL role in
// the paper's prototype); missing files start fresh.
func loadState(dir string) (*core.Information, *core.CreditSystem, *core.Calibration) {
	info := core.NewInformation()
	credits := core.NewCreditSystem()
	cal := core.NewCalibration()
	if dir == "" {
		return info, credits, cal
	}
	load := func(name string, fn func(io.Reader) error) {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			return // fresh start
		}
		defer f.Close()
		if err := fn(f); err != nil {
			log.Printf("spequlosd: ignoring corrupt snapshot %s: %v", name, err)
		}
	}
	load("information.json", func(r io.Reader) error {
		in, err := core.ReadInformation(r)
		if err == nil {
			info = in
		}
		return err
	})
	load("credits.json", func(r io.Reader) error {
		cs, err := core.ReadCreditSystem(r)
		if err == nil {
			credits = cs
		}
		return err
	})
	load("calibration.json", func(r io.Reader) error {
		c, err := core.ReadCalibration(r)
		if err == nil {
			cal = c
		}
		return err
	})
	return info, credits, cal
}

// snapshotLoop persists module state each period until stop closes.
func snapshotLoop(dir string, period time.Duration, info *core.Information,
	credits *core.CreditSystem, cal *core.Calibration, stop <-chan struct{}) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Printf("spequlosd: state dir: %v", err)
		return
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			saveState(dir, info, credits, cal)
		}
	}
}

// saveState writes one snapshot per module, each durably and atomically
// (temp file, fsync, rename): a crash leaves the previous snapshot or the
// new one under the final name, never a truncated file. A failure is logged
// and leaves that module's previous snapshot in place.
func saveState(dir string, info *core.Information, credits *core.CreditSystem, cal *core.Calibration) {
	save := func(name string, write func(io.Writer) error) {
		if err := campaign.WriteFileAtomic(filepath.Join(dir, name), write); err != nil {
			log.Printf("spequlosd: snapshot %s: %v", name, err)
		}
	}
	save("information.json", info.WriteJSON)
	save("credits.json", credits.WriteJSON)
	save("calibration.json", cal.WriteJSON)
}
