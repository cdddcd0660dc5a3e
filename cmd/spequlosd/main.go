// Command spequlosd runs the SpeQuloS service daemon: the Information,
// Credit System, Oracle and Scheduler modules as one service.Stack on the
// -addr listener (they can equally be split across hosts; every module only
// talks to the others through their HTTP APIs, here at the address the
// listener got).
//
//	spequlosd -addr :8080 -strategy 9C-C-R -period 1m -state-dir /var/lib/spequlos
//
// Routes:
//
//	/information/…   monitoring archive
//	/credit/…        accounts, orders, billing
//	/oracle/…        predictions, provisioning plans, calibration
//	/scheduler/…     QoS registration, monitor loop, instances
//	/healthz
//
// One loop ticks the monitor every -period, then writes the modules' state
// (not the Scheduler's registry, nor the API keys) to -state-dir's state.json;
// SIGINT and SIGTERM write a last image. Boot restores it or refuses to start.
//
// The daemon's Desktop Grid is emul.WallDG, whose batches progress linearly
// over wall time (-demo-duration) and whose progress names no idle worker,
// so Greedy releases none. Driving a real DG means giving the stack a
// service.DGGateway written against the BOINC/XWHEP server's status API; the
// daemon has no flag for one. The same stack over the same DG, gated and
// under tiered load on real sockets, is internal/service's
// TestStackSurvivesTieredLoad.
//
// To drive these same four modules from a fully simulated Desktop Grid —
// a BOINC/XWHEP/Condor batch generated from the paper's availability
// traces, on a virtual clock, with launches turning into simulated cloud
// workers — use the emulation harness instead of the daemon: internal/emul
// hosts the stack behind the same DGGateway HTTP wire format (POST
// /progress-batch, GET /worker-url), and `spequlos-sim -emulate` reports
// whether the stack's decisions match the in-process simulator cell by cell.
package main

import (
	"cmp"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"syscall"
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
	flag.StringVar(&o.stateDir, "state-dir", "", "directory of the state.json image, written each period and at exit (empty = in-memory only)")
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
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	served := make(chan error, 1)
	go func() { served <- d.Wait() }()
	select {
	case s := <-sig:
		log.Printf("spequlosd: %v: stopping", s)
		d.Close()
	case err := <-served:
		d.Close()
		log.Fatalf("spequlosd: %v", err)
	}
}

// daemon is a running spequlosd: the service stack and the one loop that
// ticks its monitor and writes its state.
type daemon struct {
	*service.Stack
	state     core.State
	statePath string        // empty without -state-dir
	stop      chan struct{} // Close's handoff to the loop, between ticks
}

// start serves the stack on ln and starts the daemon's loop.
func start(ln net.Listener, o options) (*daemon, error) {
	// NewTicker panics on a period ≤ 0, WallDG divides by the demo duration,
	// a rate ≤ 0 lifts every tier's limit, and only -tiers reads -fleet-cap.
	switch {
	case o.period <= 0:
		return nil, fmt.Errorf("-period %v: must be positive", o.period)
	case o.demoDur <= 0:
		return nil, fmt.Errorf("-demo-duration %v: must be positive", o.demoDur)
	case o.rate <= 0:
		return nil, fmt.Errorf("-rate %v: must be positive", o.rate)
	case o.fleetCap < 0:
		return nil, fmt.Errorf("-fleet-cap %d: must not be negative", o.fleetCap)
	case o.fleetCap > 0 && !o.tiered:
		return nil, fmt.Errorf("-fleet-cap %d: needs -tiers", o.fleetCap)
	}
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
		km = service.NewKeyManager(service.LimitsFromPolicy(cmp.Or(policy, core.DefaultTierPolicy()), o.rate))
		for _, k := range keys {
			km.Add(k)
		}
		log.Printf("spequlosd: gateway auth enabled (%d keys, %.0f req/s shared by tier weight)", len(keys), o.rate)
	}

	d := &daemon{stop: make(chan struct{})}
	if d.state, d.statePath, err = restore(o.stateDir); err != nil {
		return nil, err
	}
	if d.Stack, err = service.NewStack(service.StackConfig{
		Strategy: st, State: &d.state, Keys: km, Listener: ln,
		DG: emul.NewWallDG(o.demoDur, fmt.Sprintf("http://demo-dg.local/%d", o.demoDur/time.Second)),
	}); err != nil {
		return nil, err
	}
	d.Scheduler.TierPolicy = policy
	log.Printf("spequlosd listening on %s (strategy %s, demo DG %v/batch)", ln.Addr(), st.Label(), o.demoDur)
	go d.loop(o.period)
	return d, nil
}

// restore reads dir's state image and returns its path ("" without dir):
// absent, the daemon starts fresh; unreadable, or absent beside the unread
// per-module files of older versions, it refuses, and nothing is overwritten.
func restore(dir string) (state core.State, path string, err error) {
	if dir == "" {
		return core.NewState(), "", nil
	}
	path = filepath.Join(dir, "state.json")
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		old := slices.DeleteFunc([]string{"information.json", "credits.json", "calibration.json"}, func(name string) bool {
			_, err := os.Stat(filepath.Join(dir, name))
			return err != nil
		})
		if len(old) > 0 {
			return state, "", fmt.Errorf("%s is absent and the old per-module snapshots %q are not read", path, old)
		}
		return core.NewState(), path, os.MkdirAll(dir, 0o755)
	} else if err != nil {
		return state, "", err
	}
	defer f.Close()
	if state, err = core.ReadState(f); err != nil {
		return state, "", fmt.Errorf("%s: %w", path, err)
	}
	return state, path, nil
}

// loop ticks the monitor every period, then writes the state image, until
// Close. A failed tick is logged and retried on the next: a DG gateway or
// sibling module that is down must neither stop the loop nor go unseen.
func (d *daemon) loop(period time.Duration) {
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-t.C:
			if err := d.Scheduler.Step(); err != nil {
				log.Printf("scheduler: tick: %v", err)
			}
			d.save()
		}
	}
}

// save writes the state image atomically: a crash or a failure, which is
// logged, leaves the previous image or the new one, never a torn one.
func (d *daemon) save() {
	if d.statePath == "" {
		return
	}
	if err := campaign.WriteFileAtomic(d.statePath, d.state.WriteJSON); err != nil {
		log.Printf("spequlosd: state: %v", err)
	}
}

// Close stops the loop, then serving, then writes the last image, so every
// request acknowledged before the stop is in it.
func (d *daemon) Close() {
	d.stop <- struct{}{}
	d.Stack.Close()
	d.save()
}

// loadKeys reads a JSON API-key file: an array of service.APIKey objects,
// none empty (it could never be presented) and none listed twice.
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
	owner := map[string]string{}
	for _, k := range keys {
		if k.Key == "" {
			return nil, fmt.Errorf("key file %s: the key of %q is empty", path, k.User)
		}
		if prev, dup := owner[k.Key]; dup {
			return nil, fmt.Errorf("key file %s: %q and %q have the same key", path, prev, k.User)
		}
		owner[k.Key] = k.User
		if _, err := core.ParseTier(string(k.Tier)); err != nil {
			return nil, fmt.Errorf("key file %s: key %q: %w", path, k.User, err)
		}
	}
	return keys, nil
}
