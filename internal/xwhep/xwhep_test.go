package xwhep

import "testing"

func TestConfigDefaults(t *testing.T) {
	// keep_alive_period 60 and worker_timeout 900 when unset: detection
	// 900 + 60/2 after the loss, no checkpoints, requeue first.
	want := Model{Name: "XWHEP", DetectDelay: 930, RequeueFirst: true}
	if got := (Config{}).model(); got != want {
		t.Fatalf("zero config not defaulted: %+v, want %+v", got, want)
	}
	if got := DefaultConfig().model(); got != want {
		t.Fatalf("default config: %+v, want %+v", got, want)
	}
	if got := (Config{KeepAlivePeriod: 20, WorkerTimeout: 100}).model().DetectDelay; got != 110 {
		t.Fatalf("detection delay %v, want 100 + 20/2", got)
	}
}
