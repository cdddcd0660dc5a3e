// Command spequlosd runs the SpeQuloS service daemon: the Information,
// Credit System, Oracle and Scheduler modules mounted on one HTTP server
// (they can equally be split across hosts; every module only talks to the
// others through their HTTP APIs).
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
// The daemon's Desktop Grid is a demo gateway whose batches progress
// linearly over wall time (-demo-duration). Driving a real DG means giving
// service.NewSchedulerService a DGGateway written against the BOINC/XWHEP
// server's status API; the daemon has no flag for one.
//
// To drive these same four modules from a fully simulated Desktop Grid —
// a BOINC/XWHEP/Condor batch generated from the paper's availability
// traces, on a virtual clock, with launches turning into simulated cloud
// workers — use the emulation harness instead of the daemon: internal/emul
// hosts the stack behind the same DGGateway HTTP wire format (GET
// /progress/{batch}, /busy/{instance}, /worker-url), and `spequlos-sim
// -emulate` reports whether the stack's decisions match the in-process
// simulator cell by cell.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"spequlos/internal/campaign"
	"spequlos/internal/cloud"
	"spequlos/internal/core"
	"spequlos/internal/middleware"
	"spequlos/internal/service"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		strategy = flag.String("strategy", "9C-C-R", "provisioning strategy combination")
		period   = flag.Duration("period", time.Minute, "scheduler monitor period")
		demoDur  = flag.Duration("demo-duration", 10*time.Minute, "demo DG: time a batch takes to complete")
		stateDir = flag.String("state-dir", "", "directory for JSON state snapshots (empty = in-memory only)")
		tiered   = flag.Bool("tiers", false, "enable the enterprise/premium/free tier admission policy")
		fleetCap = flag.Int("fleet-cap", 0, "with -tiers: max batches holding cloud support at once (0 = unlimited)")
		keysFile = flag.String("keys", "", "JSON API-key file ([{key,user,tier,unlimited}...]); enables gateway auth + per-tier rate limits")
		rate     = flag.Float64("rate", 100, "with -keys: total request rate (req/s) shared across tiers by policy weight")
	)
	flag.Parse()

	st, err := core.StrategyByLabel(*strategy)
	if err != nil {
		log.Fatalf("spequlosd: %v", err)
	}

	information, creditSystem, calibration := loadState(*stateDir)
	info := service.NewInformationService(information)
	credit := service.NewCreditService(creditSystem)

	// Self-addressed clients: module-to-module calls go through HTTP even
	// in the single-host deployment.
	base := "http://127.0.0.1" + normalizeAddr(*addr)
	infoClient := service.NewInformationClient(base + "/information")
	creditClient := service.NewCreditClient(base + "/credit")
	oracleClient := service.NewOracleClient(base + "/oracle")

	oracleCore := core.NewOracle(st)
	oracleCore.Calibration = calibration
	oracle := service.NewOracleService(oracleCore, infoClient)
	dg := newDemoDG(*demoDur)
	sched := service.NewSchedulerService(infoClient, creditClient, oracleClient, cloud.DefaultRegistry(), dg)
	if *tiered {
		sched.TierPolicy = core.DefaultTierPolicy()
		sched.TierPolicy.FleetCap = *fleetCap
	}

	var handler http.Handler = service.Mux(info, credit, oracle, sched)
	if *keysFile != "" {
		policy := sched.TierPolicy
		if policy == nil {
			policy = core.DefaultTierPolicy()
		}
		keys, err := loadKeys(*keysFile)
		if err != nil {
			log.Fatalf("spequlosd: %v", err)
		}
		km := service.NewKeyManager(service.LimitsFromPolicy(policy, *rate))
		for _, k := range keys {
			km.Add(k)
		}
		// The Scheduler's module-to-module calls loop back through this
		// same gated listener; give them a process-local unlimited service
		// key so internal traffic is neither 401'd nor rate-limited.
		svc := km.Issue("spequlosd", core.TierEnterprise)
		svc.Unlimited = true
		km.Add(svc)
		infoClient.HTTP = service.KeyedClient(svc.Key)
		creditClient.HTTP = service.KeyedClient(svc.Key)
		oracleClient.HTTP = service.KeyedClient(svc.Key)
		handler = km.Gate(handler)
		log.Printf("spequlosd: gateway auth enabled (%d keys, %.0f req/s shared by tier weight)", len(keys), *rate)
	}

	stop := make(chan struct{})
	go sched.Run(*period, stop)
	defer close(stop)
	if *stateDir != "" {
		go snapshotLoop(*stateDir, *period, information, creditSystem, oracleCore.Calibration, stop)
	}

	log.Printf("spequlosd listening on %s (strategy %s, demo DG %v/batch)", *addr, st.Label(), *demoDur)
	if err := http.ListenAndServe(*addr, handler); err != nil {
		log.Fatalf("spequlosd: %v", err)
	}
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

func normalizeAddr(addr string) string {
	if addr == "" {
		return ":8080"
	}
	if addr[0] == ':' {
		return addr
	}
	for i := len(addr) - 1; i >= 0; i-- {
		if addr[i] == ':' {
			return addr[i:]
		}
	}
	return ":" + addr
}

// demoDG is a stand-in Desktop Grid whose batches progress linearly over
// wall time — enough to exercise the full QoS loop without external
// middleware.
type demoDG struct {
	duration time.Duration
	mu       sync.Mutex
	started  map[string]time.Time
	sizes    map[string]int
}

func newDemoDG(d time.Duration) *demoDG {
	return &demoDG{duration: d, started: map[string]time.Time{}, sizes: map[string]int{}}
}

func (d *demoDG) Progress(batchID string) (middleware.Progress, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	start, ok := d.started[batchID]
	if !ok {
		start = time.Now()
		d.started[batchID] = start
		d.sizes[batchID] = 100
	}
	size := d.sizes[batchID]
	frac := float64(time.Since(start)) / float64(d.duration)
	if frac > 1 {
		frac = 1
	}
	done := int(frac * float64(size))
	return middleware.Progress{
		Size: size, Arrived: size, Completed: done,
		EverAssigned: size, Running: size - done,
	}, nil
}

func (d *demoDG) WorkerURL() string {
	return fmt.Sprintf("http://demo-dg.local/%d", d.duration/time.Second)
}
