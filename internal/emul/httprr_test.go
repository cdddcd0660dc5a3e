package emul

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"spequlos/internal/boinc"
	"spequlos/internal/cloud"
	"spequlos/internal/core"
	"spequlos/internal/httprr"
	"spequlos/internal/middleware"
	"spequlos/internal/sim"
)

// recordedWorkerURL is the fixed worker endpoint used at record time so
// re-recording never changes the trace just because the test server's
// ephemeral port moved.
const recordedWorkerURL = "http://dg.spequlos.example/worker"

// TestDGClientConformanceReplay is the hermetic middleware-adapter
// conformance test: the DGClient adapter (the Scheduler's side of the DG
// wire) runs against traffic recorded from a real simulated-BOINC gateway,
// committed in testdata/dgclient.httprr — `go test` needs no live server.
// Re-record against a live gateway with:
//
//	go test ./internal/emul -run TestDGClientConformanceReplay -httprecord '.*'
func TestDGClientConformanceReplay(t *testing.T) {
	rr, err := httprr.Open("testdata/dgclient.httprr", http.DefaultTransport)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := rr.Close(); err != nil {
			t.Fatal(err)
		}
	}()

	// The recorded scenario: a quick BOINC cell's workload submitted at t=0,
	// simulated for one virtual hour. The workload derives from the same
	// deterministic generator in both modes, so replay can still validate
	// sizes without any server.
	sc := quickScenario("BOINC", "seti", "9C-C-R")
	workload, err := sc.Workload()
	if err != nil {
		t.Fatal(err)
	}

	base := "http://" + "dg.replay.invalid"
	if rr.Recording() {
		eng := sim.NewEngine()
		primary := boinc.New(eng, boinc.DefaultConfig())
		simCl := cloud.NewSimCloud(eng, sim.NewRNG(1))
		gw := NewSimDG(eng, primary, core.CloudDeployment{Deploy: core.Reschedule, Cloud: simCl})
		gw.SetWorkerURL(recordedWorkerURL)
		srv := httptest.NewServer(gw.Handler())
		defer srv.Close()
		primary.Submit(middleware.Batch{ID: "b1", Tasks: workload.Tasks})
		eng.RunUntil(3600)
		base = srv.URL
	}

	c := NewDGClient(base)
	c.HTTP = rr.Client()

	// Worker URL: the adapter must surface the gateway's advertised endpoint,
	// not its own base URL fallback.
	if got := c.WorkerURL(); got != recordedWorkerURL {
		t.Errorf("worker url %q, want %q", got, recordedWorkerURL)
	}

	// Aggregated progress: a full, self-consistent snapshot of the batch.
	all, err := c.ProgressBatch([]string{"b1"})
	if err != nil {
		t.Fatal(err)
	}
	p, ok := all["b1"]
	if !ok {
		t.Fatalf("reply omits b1: %+v", all)
	}
	if p.Size != len(workload.Tasks) {
		t.Errorf("progress size %d, want %d", p.Size, len(workload.Tasks))
	}
	if p.Arrived == 0 || p.Arrived > p.Size {
		t.Errorf("arrived %d out of range (size %d)", p.Arrived, p.Size)
	}
	if p.Completed < 0 || p.Completed > p.Size || p.EverAssigned < p.Completed {
		t.Errorf("inconsistent snapshot: %+v", p)
	}
}
