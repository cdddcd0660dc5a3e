package core

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestInformationSnapshotRoundTrip(t *testing.T) {
	in := NewInformation()
	bi, _ := in.Track("b1", "env1", 100, 1000)
	bi.AddSampleWorkers(1060, 30, 80, 20, 50, 200)
	bi.AddSampleWorkers(1120, 100, 100, 0, 0, 180)
	in.Track("b2", "env2", 10, 0)

	var buf bytes.Buffer
	if err := in.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadInformation(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rbi := back.batches["b1"]
	if rbi == nil {
		t.Fatal("b1 lost")
	}
	if rbi.EnvKey != "env1" || rbi.Size != 100 || len(rbi.Samples) != 2 {
		t.Fatalf("restored: %+v", rbi)
	}
	// Derived state reconstructed by replay.
	if !rbi.Done() || rbi.CompletedAt != 120 {
		t.Fatalf("completion not restored: done=%v at=%v", rbi.Done(), rbi.CompletedAt)
	}
	if tc, ok := rbi.TimeAtCompletion(0.3); !ok || tc != 60 {
		t.Fatalf("milestones not rebuilt: tc(0.3)=%v,%v", tc, ok)
	}
	if rbi.PeakWorkers != 200 {
		t.Fatalf("peak workers not restored: %d", rbi.PeakWorkers)
	}
	if len(back.BatchIDs()) != 2 {
		t.Fatal("batch count wrong")
	}
}

func TestCreditSnapshotRoundTrip(t *testing.T) {
	cs := NewCreditSystem()
	cs.Deposit("alice", 100)
	cs.OrderQoS("alice", "b1", 60)
	cs.Bill("b1", 25)
	cs.Deposit("bob", 7)

	var buf bytes.Buffer
	if err := cs.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCreditSystem(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a := back.AccountOf("alice")
	if a.Balance != 40 || a.Spent != 25 {
		t.Fatalf("alice restored: %+v", a)
	}
	o, ok := back.OrderOf("b1")
	if !ok || o.Billed != 25 || o.Allocated != 60 || o.Closed {
		t.Fatalf("order restored: %+v", o)
	}
	// The restored system keeps working: pay refunds the remainder.
	refund, err := back.Pay("b1")
	if err != nil || refund != 35 {
		t.Fatalf("pay after restore: %v %v", refund, err)
	}
	if back.AccountOf("bob").Balance != 7 {
		t.Fatal("bob lost")
	}
}

// ReadCalibration loads each environment's archive in bulk and fits once;
// what it reaches must be what Record reached pair by pair when the snapshot
// was taken, to the bit, and must serialize back to the same snapshot.
func TestCalibrationSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	envs := []string{"env", "other", "single"}
	c := NewCalibration()
	for i := 0; i < 10; i++ {
		c.Record("env", 1000+float64(i), 1500+1.5*float64(i))
	}
	for i := 0; i < 300; i++ {
		base, actual := randomPair(rng, i%2 == 0)
		c.Record(envs[rng.Intn(2)], base, actual)
	}
	c.Record("single", 40, 50)
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.String()
	back, err := ReadCalibration(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, env := range envs {
		if got, want := back.Count(env), c.Count(env); got != want {
			t.Errorf("%s: count = %d, want %d", env, got, want)
		}
		if got, want := back.Alpha(env), c.Alpha(env); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: loaded α = %v, replayed α = %v", env, got, want)
		}
		if got, want := back.SuccessRate(env), c.SuccessRate(env); got != want {
			t.Errorf("%s: success rate = %v, want %v", env, got, want)
		}
	}
	var again bytes.Buffer
	if err := back.WriteJSON(&again); err != nil {
		t.Fatal(err)
	}
	if again.String() != snap {
		t.Error("the loaded calibration does not serialize back to the snapshot it was read from")
	}
	// A loaded archive keeps fitting incrementally where the original does.
	c.Record("env", 7, 9)
	back.Record("env", 7, 9)
	if got, want := back.Alpha("env"), c.Alpha("env"); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("after one more record: loaded α = %v, replayed α = %v", got, want)
	}
}

func TestSnapshotErrors(t *testing.T) {
	if _, err := ReadInformation(strings.NewReader("{oops")); err == nil {
		t.Fatal("bad information JSON accepted")
	}
	if _, err := ReadCreditSystem(strings.NewReader("[]")); err == nil {
		t.Fatal("bad credit JSON accepted")
	}
	if _, err := ReadCalibration(strings.NewReader(`{"environments":[{"env_key":"e","bases":[1],"actuals":[]}]}`)); err == nil {
		t.Fatal("mismatched calibration lengths accepted")
	}
}
