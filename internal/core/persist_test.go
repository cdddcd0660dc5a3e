package core

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// roundTrip writes s and reads the image back.
func roundTrip(t testing.TB, s State) State {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadState(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

// informationFixture, creditFixture and calibrationFixture are the sections
// the round-trip tests restore, and FuzzReadState's seeds.
func informationFixture() *Information {
	in := NewInformation()
	bi, _ := in.Track("b1", "env1", 100, 1000)
	bi.add(Sample{T: 60, Completed: 30, Assigned: 80, Queued: 20, Running: 50, Workers: 200})
	bi.add(Sample{T: 120, Completed: 100, Assigned: 100, Workers: 180})
	in.Track("b2", "env2", 10, 0)
	return in
}

func creditFixture() *CreditSystem {
	cs := NewCreditSystem()
	cs.Deposit("alice", 100)
	cs.OrderQoS("alice", "b1", 60)
	cs.Bill("b1", 25)
	cs.Deposit("bob", 7)
	return cs
}

func calibrationFixture() *Calibration {
	rng := rand.New(rand.NewSource(1))
	c := NewCalibration()
	for i := 0; i < 10; i++ {
		c.Record("env", 1000+float64(i), 1500+1.5*float64(i))
	}
	for i := 0; i < 300; i++ {
		base, actual := randomPair(rng, i%2 == 0)
		c.Record([]string{"env", "other"}[rng.Intn(2)], base, actual)
	}
	c.Record("single", 40, 50)
	return c
}

func TestInformationSnapshotRoundTrip(t *testing.T) {
	s := NewState()
	s.Information = informationFixture()
	back := roundTrip(t, s).Information
	rbi := back.batches["b1"]
	if rbi == nil {
		t.Fatal("b1 lost")
	}
	if rbi.EnvKey != "env1" || rbi.Size != 100 || len(rbi.Samples) != 2 {
		t.Fatalf("restored: %+v", rbi)
	}
	// Derived state reconstructed by replay.
	if rbi.CompletedAt != 120 {
		t.Fatalf("completion not restored: at=%v", rbi.CompletedAt)
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
	s := NewState()
	s.Credits = creditFixture()
	back := roundTrip(t, s).Credits
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

// The calibration section is loaded environment by environment in bulk with
// one fit each; what it reaches must be what Record reached pair by pair
// when the image was taken, to the bit, and must serialize back to the same
// image.
func TestCalibrationSnapshotRoundTrip(t *testing.T) {
	s := NewState()
	s.Calibration = calibrationFixture()
	c := s.Calibration
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	img := buf.String()
	loaded, err := ReadState(&buf)
	if err != nil {
		t.Fatal(err)
	}
	back := loaded.Calibration
	for _, env := range []string{"env", "other", "single"} {
		got, want := back.Fit(env), c.Fit(env)
		if got.Count != want.Count || got.Hits != want.Hits {
			t.Errorf("%s: loaded %d hits of %d, replayed %d of %d", env, got.Hits, got.Count, want.Hits, want.Count)
		}
		if math.Float64bits(got.Alpha) != math.Float64bits(want.Alpha) {
			t.Errorf("%s: loaded α = %v, replayed α = %v", env, got.Alpha, want.Alpha)
		}
	}
	var again bytes.Buffer
	if err := loaded.WriteJSON(&again); err != nil {
		t.Fatal(err)
	}
	if again.String() != img {
		t.Error("the loaded calibration does not serialize back to the image it was read from")
	}
	// A loaded archive keeps fitting incrementally where the original does.
	c.Record("env", 7, 9)
	back.Record("env", 7, 9)
	if got, want := back.Fit("env").Alpha, c.Fit("env").Alpha; math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("after one more record: loaded α = %v, replayed α = %v", got, want)
	}
}

// TestSnapshotErrors: ReadState refuses an image it cannot restore whole —
// bad JSON, a missing section, a section that does not parse or is
// inconsistent — and above all a credit section that would invent or drop
// credits. It never answers with an empty module in place of a bad one.
func TestSnapshotErrors(t *testing.T) {
	const (
		info = `"information":{"batches":null}`
		cal  = `"calibration":{"environments":null}`
	)
	credits := func(accounts, orders string) string {
		return `{` + info + `,` + cal + `,"credits":{"accounts":[` + accounts + `],"orders":[` + orders + `]}}`
	}
	alice := `{"user":"alice","balance":40,"spent":25}`
	for _, c := range []struct{ name, img, want string }{
		{"bad JSON", "{oops", "invalid character"},
		{"truncated", credits(alice, "")[:40], "unexpected end of JSON input"},
		{"trailing data", credits(alice, "") + "{}", "invalid character"},
		{"not an object", "[]", "cannot unmarshal array"},
		{"missing section", `{` + info + `,` + cal + `}`, "sections are all required"},
		{"null section", `{` + info + `,` + cal + `,"credits":null}`, "sections are all required"},
		{"section of the wrong type", `{` + info + `,` + cal + `,"credits":[]}`, "cannot unmarshal array"},
		{"duplicate batch", `{"information":{"batches":[{"batch_id":"b"},{"batch_id":"b"}]},` + cal + `,"credits":{}}`, `batch "b" already tracked`},
		{"mismatched calibration", `{` + info + `,"credits":{},"calibration":{"environments":[{"env_key":"e","bases":[1],"actuals":[]}]}}`, "mismatched lengths"},
		{"duplicate user", credits(alice+","+alice, ""), "account {User:alice Balance:40 Spent:25}: a second one for the user"},
		{"negative balance", credits(`{"user":"u","balance":-1}`, ""), "account {User:u Balance:-1"},
		{"negative spent", credits(`{"user":"u","spent":-1}`, ""), "Spent:-1}"},
		{"duplicate order", credits(alice, `{"batch_id":"b","user":"alice","allocated":5},{"batch_id":"b","user":"alice","allocated":5}`), "a second one for the batch"},
		{"negative allocated", credits(alice, `{"batch_id":"b","user":"alice","allocated":-5}`), "Allocated:-5"},
		{"negative billed", credits(alice, `{"batch_id":"b","user":"alice","allocated":5,"billed":-1}`), "Billed:-1"},
		{"billed past allocated", credits(alice, `{"batch_id":"b","user":"alice","allocated":5,"billed":6}`), "Allocated:5 Billed:6"},
	} {
		if _, err := ReadState(strings.NewReader(c.img)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: ReadState error %v, want one containing %q", c.name, err, c.want)
		}
	}
	// The boundaries are accepted: nothing billed, and everything billed.
	if _, err := ReadState(strings.NewReader(credits(`{"user":"u"}`, `{"batch_id":"b","user":"u","allocated":5,"billed":5}`))); err != nil {
		t.Errorf("a fully billed order refused: %v", err)
	}
}

// A bill that runs an order dry must leave it billed exactly its allocation,
// not one rounding step past it: the image would be refused, and the refund
// at Pay would take credits from the account.
func TestBillRunsAnOrderDryExactly(t *testing.T) {
	cs := NewCreditSystem()
	cs.Deposit("u", 17.556492415199802)
	if err := cs.OrderQoS("u", "b", 17.556492415199802); err != nil {
		t.Fatal(err)
	}
	cs.Bill("b", 0.846126895437946)
	if _, exhausted, _ := cs.Bill("b", 100); !exhausted {
		t.Fatal("order not exhausted")
	}
	if o, _ := cs.OrderOf("b"); o.Billed != o.Allocated {
		t.Fatalf("billed %v of %v allocated", o.Billed, o.Allocated)
	}
	if refund, _ := cs.Pay("b"); refund != 0 || cs.AccountOf("u").Balance != 0 {
		t.Fatalf("refund %v, balance %v", refund, cs.AccountOf("u").Balance)
	}
}

// FuzzReadState: whatever image ReadState accepts, the state it restores
// writes an image that reads back to a state writing the same bytes.
func FuzzReadState(f *testing.F) {
	s := State{informationFixture(), creditFixture(), calibrationFixture()}
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	buf.Reset()
	if err := NewState().WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, img []byte) {
		s, err := ReadState(bytes.NewReader(img))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := s.WriteJSON(&first); err != nil {
			t.Fatal(err)
		}
		if err := roundTrip(t, s).WriteJSON(&second); err != nil {
			t.Fatal(err)
		}
		if first.String() != second.String() {
			t.Fatalf("image changed across a round trip:\n%s\nbecame:\n%s", first.String(), second.String())
		}
	})
}
