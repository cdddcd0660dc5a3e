package emul

import (
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
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
		"Progress":             func() { c.Progress("b") },
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
