package emul

import (
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestDGClientReusesConnections is service's TestClientsReuseConnections for
// the DG wire: a hundred sequential calls of every DGClient method, failing
// ones included, open at most one TCP connection to the gateway.
func TestDGClientReusesConnections(t *testing.T) {
	var opened atomic.Int64
	srv := httptest.NewUnstartedServer(NewGatewayHandler(fuzzWire{}))
	srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			opened.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	c := NewDGClient(srv.URL)
	c.HTTP = &http.Client{Transport: &http.Transport{}}

	for name, call := range map[string]func(){
		"ProgressBatch":        func() { c.ProgressBatch([]string{"b1", "b2"}) },
		"InstanceBusy":         func() { c.InstanceBusy("i-1") },
		"InstanceBusy unknown": func() { c.InstanceBusy("ghost") },
		"WorkerURL":            func() { c.workerURL = ""; c.WorkerURL() },
	} {
		before := opened.Load()
		for i := 0; i < 100; i++ {
			call()
		}
		if n := opened.Load() - before; n > 1 {
			t.Errorf("%s: %d new connections for 100 calls, want at most 1", name, n)
		}
	}
}

// TestWallDGProgressesLinearly: a wall-clock batch starts near zero at its
// first poll, is done once its duration has passed, and its workers are busy.
func TestWallDGProgressesLinearly(t *testing.T) {
	dg := NewWallDG(100*time.Millisecond, "http://dg.example/worker")
	p0, err := dg.ProgressBatch([]string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	if p0["x"].Size != 100 || p0["x"].Completed > 5 {
		t.Fatalf("initial progress: %+v", p0)
	}
	time.Sleep(120 * time.Millisecond)
	p1, _ := dg.ProgressBatch([]string{"x", "y"})
	if !p1["x"].Done() || p1["y"].Done() {
		t.Fatalf("after one duration: %+v, want x done and y just started", p1)
	}
	if busy, err := dg.InstanceBusy("i-1"); !busy || err != nil {
		t.Fatalf("InstanceBusy = %v, %v; want always busy", busy, err)
	}
	if dg.WorkerURL() != "http://dg.example/worker" {
		t.Fatalf("worker url %q", dg.WorkerURL())
	}
}
