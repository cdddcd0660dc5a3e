package emul

import (
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"spequlos/internal/service"
)

// TestDGClientReusesConnections is service's TestClientsReuseConnections for
// the DG wire: a hundred sequential calls of every DGClient method open at
// most one TCP connection to the gateway.
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
		"ProgressBatch": func() { c.ProgressBatch([]string{"b1", "b2"}) },
		"WorkerURL":     func() { c.workerURL = ""; c.WorkerURL() },
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
// first poll, is done once its duration has passed, and names no idle
// instance.
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
	if idle := p1["x"].IdleInstances; idle != nil {
		t.Fatalf("idle instances %q, want none", idle)
	}
	if dg.WorkerURL() != "http://dg.example/worker" {
		t.Fatalf("worker url %q", dg.WorkerURL())
	}
}

// TestProgressReplyBytes pins the POST /progress-batch reply: snake_case
// names and no zero counter, and a batch with an idle instance only adds its
// list.
func TestProgressReplyBytes(t *testing.T) {
	for _, c := range []struct {
		name string
		gw   service.DGGateway
		want string
	}{
		{"none idle", NewWallDG(time.Hour, ""),
			`{"progress":{"b1":{"size":100,"arrived":100,"ever_assigned":100,"running":100}}}`},
		{"one idle", fuzzWire{},
			`{"progress":{"b1":{"size":3,"arrived":3,"completed":1,"ever_assigned":2,"running":1,"idle_instances":["i-1"]}}}`},
	} {
		rec := httptest.NewRecorder()
		NewGatewayHandler(c.gw).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/progress-batch", strings.NewReader(`{"ids":["b1"]}`)))
		if got := strings.TrimSuffix(rec.Body.String(), "\n"); rec.Code != http.StatusOK || got != c.want {
			t.Errorf("%s: %d %s, want 200 %s", c.name, rec.Code, got, c.want)
		}
	}
}
