package core

import (
	"bytes"
	"fmt"
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
	if rbi.EnvKey != "env1" || rbi.Size != 100 || rbi.samples != 2 {
		t.Fatalf("restored: %+v", rbi)
	}
	// Derived state reconstructed by replay.
	if rbi.CompletedAt != 120 {
		t.Fatalf("completion not restored: at=%v", rbi.CompletedAt)
	}
	if tc, ok := rbi.tc(30); !ok || tc != 60 {
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
		{"older layout", `{"information":{"batches":[{"batch_id":"b","size":10,"submitted_at":0,"samples":[{"t":60,"completed":3,"assigned":5,"queued":5,"running":2,"workers":4}]}]},` + cal + `,"credits":{}}`, `batch "b" holds a per-sample history ("samples"), the layout of an older version`},
		{"older layout, no sample taken", `{"information":{"batches":[{"batch_id":"b","size":10,"submitted_at":0,"samples":null}]},` + cal + `,"credits":{}}`, "the layout of an older version"},
		{"negative sample count", `{"information":{"batches":[{"batch_id":"b","size":10,"sample_count":-1}]},` + cal + `,"credits":{}}`, `batch "b": negative sample count -1`},
		{"milestone at a negative time", `{"information":{"batches":[{"batch_id":"b","size":10,"tc":[5,-1]}]},` + cal + `,"credits":{}}`, `batch "b": more milestones than its size 10 allows, or one at a negative time`},
		{"milestones of an empty batch", `{"information":{"batches":[{"batch_id":"b","ta":[5]}]},` + cal + `,"credits":{}}`, "more milestones than its size 0 allows"},
		{"milestones past 100%", `{"information":{"batches":[{"batch_id":"b","size":10,"tc":[` + strings.Repeat("1,", 100) + `1]}]},` + cal + `,"credits":{}}`, "more milestones than its size 10 allows"},
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
	buf.Reset()
	series := NewState()
	bi, _ := series.Information.Track("b", "env", 20, 1000)
	for script := roundTripScript; len(script) >= 6; script = script[6:] {
		bi.add(tickSample(script))
	}
	if err := series.WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"information":{"batches":[{"batch_id":"b","size":10,"submitted_at":0,"samples":[{"t":60,"completed":3}]}]},"credits":{},"calibration":{}}`))
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

// BenchmarkStateImage writes and reads the image of 100 running batches of
// 1000 tasks, each observed for one day at 26 ticks (a period of 3323 s) and
// at 1440 (60 s), completion reaching 99 % at the last tick, so the two
// differ in the number of ticks alone. It reports the image's size as
// image_bytes: the write sub-benchmark's ns/op is one WriteJSON, the read
// one's one ReadState.
func BenchmarkStateImage(b *testing.B) {
	for _, ticks := range []int{26, 1440} {
		s := NewState()
		period := 86400 / ticks
		for j := 0; j < 100; j++ {
			id := fmt.Sprintf("b%03d", j)
			s.Information.Track(id, "BOINC/seti/SMALL", 1000, float64(60*j))
			for i := 1; i <= ticks; i++ {
				completed := i * 990 / ticks
				assigned := min(1000, completed+100)
				s.Information.AddSample(id, Sample{T: float64(period * i), Completed: completed, Assigned: assigned,
					Queued: 1000 - assigned, Running: assigned - completed, Workers: 200 - i%7})
			}
		}
		var img bytes.Buffer
		if err := s.WriteJSON(&img); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("ticks=%d/write", ticks), func(b *testing.B) {
			var buf bytes.Buffer
			for range b.N {
				buf.Reset()
				if err := s.WriteJSON(&buf); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(img.Len()), "image_bytes")
		})
		b.Run(fmt.Sprintf("ticks=%d/read", ticks), func(b *testing.B) {
			for range b.N {
				if _, err := ReadState(bytes.NewReader(img.Bytes())); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(img.Len()), "image_bytes")
		})
	}
}

// roundTripScript is a tickSamples script that passes 50% with completion
// ahead of assignment, after samples at negative times and with counts past
// the size of a 20-task batch.
var roundTripScript = tickSamples([5]int{-400, 3, 5, 9, 1}, [5]int{200, 2, 7, 4, 0}, [5]int{-80, 12, 9, 1, 0},
	[5]int{400, 11, 9, 6, 0}, [5]int{800, 12, 14, 6, 0}, [5]int{1200, 30, 30, 2, 0})

// FuzzImageRoundTrip drives a batch through the samples of a tickSamples
// script, negative times included, writes the image after the first cut of
// them and reads it back. The restored batch must give the same TickView and
// View bit for bit (%+v prints a float's shortest exact form, -0 included),
// write the same image, and stay equal to the original under the samples
// after the cut.
func FuzzImageRoundTrip(f *testing.F) {
	f.Add(uint8(100), uint8(2), tickSamples([5]int{400, 10, 40, 8, 3}, [5]int{800, 50, 90, 8, 3}, [5]int{1600, 95, 100, 2, 3}, [5]int{2000, 100, 100, 0, 3}))
	f.Add(uint8(20), uint8(3), roundTripScript)
	f.Add(uint8(20), uint8(5), roundTripScript)
	f.Add(uint8(0), uint8(1), tickSamples([5]int{400, 10, 40, 8, 3}, [5]int{800, 0, 0, 0, 0}))
	f.Fuzz(func(t *testing.T, size, cut uint8, script []byte) {
		orig := NewState()
		bi, _ := orig.Information.Track("b", "env", int(size), 1000)
		rows := len(script) / 6
		k := int(cut) % (rows + 1)
		for i := 0; i < k; i++ {
			bi.add(tickSample(script[6*i:]))
		}
		var img bytes.Buffer
		if err := orig.WriteJSON(&img); err != nil {
			t.Fatal(err)
		}
		back, err := ReadState(bytes.NewReader(img.Bytes()))
		if err != nil {
			t.Fatalf("the image of %d samples is refused: %v\n%s", k, err, img.String())
		}
		rbi := back.Information.batches["b"]
		same := func(when string) {
			t.Helper()
			for _, v := range [][2]any{{bi.TickView(), rbi.TickView()}, {bi.View(), rbi.View()}} {
				if a, b := fmt.Sprintf("%+v", v[0]), fmt.Sprintf("%+v", v[1]); a != b {
					t.Fatalf("%s: original %s\nrestored %s", when, a, b)
				}
			}
		}
		same("restored")
		var again bytes.Buffer
		if err := back.WriteJSON(&again); err != nil {
			t.Fatal(err)
		}
		if again.String() != img.String() {
			t.Fatalf("the restored state writes another image:\n%s\nwas:\n%s", again.String(), img.String())
		}
		for i := k; i < rows; i++ {
			s := tickSample(script[6*i:])
			bi.add(s)
			rbi.add(s)
			same(fmt.Sprintf("sample %d after the cut at %d", i, k))
		}
	})
}
