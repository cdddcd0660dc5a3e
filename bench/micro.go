package main

import (
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"spequlos/internal/campaign"
	"spequlos/internal/cloud"
	"spequlos/internal/core"
	"spequlos/internal/emul"
	"spequlos/internal/service"
	"spequlos/internal/sim"
	"spequlos/internal/trace"
)

// perOp runs fn (which performs n operations) three times and returns the
// median time per operation.
func perOp(n int, fn func()) time.Duration {
	var took []float64
	for round := 0; round < 3; round++ {
		start := time.Now()
		fn()
		took = append(took, float64(time.Since(start)))
	}
	return time.Duration(median(took) / float64(n))
}

// microBenchmarks measures each layer's unit costs through its public
// functions. They do not depend on the workload; every traced run repeats
// them so a layer's number sits next to the workload numbers it explains,
// taken on the same machine at the same moment. The smoke test runs a
// hundredth of the iterations.
func microBenchmarks(v map[string]float64, tiny bool) {
	scale := 1
	if tiny {
		scale = 100
	}

	// The calibration kernel, so the times below can be read against the
	// machine's speed when they were taken.
	kernel := []float64{calibrate() * 1e3}
	if !tiny {
		kernel = append(kernel, calibrate()*1e3, calibrate()*1e3)
	}
	v["bench.calibration_ms"] = median(kernel)

	// stats: one million quartile samples, the inner loop of trace.Generate.
	sampler := trace.SETI.Avail.Sampler()
	rng := rand.New(rand.NewPCG(1, 1))
	var sink float64
	n := 1_000_000 / scale
	v["stats.sample_ns"] = float64(perOp(n, func() {
		for i := 0; i < n; i++ {
			sink += sampler.Sample(rng)
		}
	}))

	// trace: MeasureStats over the six Table 2 traces, as BuildTable2 sizes them.
	var table2 []*trace.Trace
	for _, name := range campaign.TraceNames() {
		src, _ := campaign.TraceSource(name) // the names come from the same package
		pool := 0
		if name == "seti" {
			pool = 2000
		}
		table2 = append(table2, src.Generate(20260611, 7*86400, pool))
	}
	v["trace.measure_stats_s"] = perOp(1, func() {
		for _, tr := range table2 {
			sink += tr.MeasureStats(900).Concurrency.Mean
		}
	}).Seconds()

	// sim: the bare engine, an op event rescheduling itself, 10k pending.
	v["sim.event_ns"] = float64(perOp(n, func() {
		eng := sim.NewEngine()
		var op sim.Op
		op = eng.RegisterOp(func(p sim.Payload) {
			eng.AfterOp(1+float64(p.I%97), op, sim.Payload{I: p.I + 1})
		})
		for i := 0; i < 10_000; i++ {
			eng.AtOp(float64(i%997), op, sim.Payload{I: int32(i)})
		}
		for i := 0; i < n; i++ {
			eng.Step()
		}
	}))

	// core: the credit ledger's full cycle for one batch.
	m := 20_000 / scale
	v["core.credit_cycle_ns"] = float64(perOp(m, func() {
		cs := core.NewCreditSystem()
		for i := 0; i < m; i++ {
			id := fmt.Sprintf("b%d", i)
			cs.Deposit("u", 100)      //nolint:errcheck // positive amount
			cs.OrderQoS("u", id, 100) //nolint:errcheck // funded above
			for k := 0; k < 10; k++ {
				cs.Bill(id, 1) //nolint:errcheck // order is open
			}
			cs.Pay(id) //nolint:errcheck // order exists
		}
	}))

	// core: tier admission over 2000 candidates under the crowd2k fleet cap.
	policy := core.DefaultTierPolicy()
	policy.FleetCap = 120
	cands := make([]core.TierCandidate, 2000)
	for i := range cands {
		cands[i] = core.TierCandidate{BatchID: fmt.Sprintf("b%04d", i), Tier: core.AllTiers()[i%3], Since: float64(i % 50)}
	}
	admits := max(m/400, 1)
	v["core.admit_us"] = perOp(admits, func() {
		for i := 0; i < admits; i++ {
			sink += float64(len(policy.Admit(3600, map[core.Tier]int{core.TierFree: 5}, cands)))
		}
	}).Seconds() * 1e6

	// core: the Oracle's prediction on a batch with 1000 samples.
	oracle := core.NewOracle(core.DefaultStrategy())
	bi := core.NewBatchInfo("b", "env", 1000, 0)
	for i := 1; i <= 1000; i++ {
		bi.AddSample(float64(i*60), i/2, i, 1000-i, i/2)
	}
	v["core.predict_ns"] = float64(perOp(n, func() {
		for i := 0; i < n; i++ {
			p, _ := oracle.Predict(bi, 60000) // the batch has completions
			sink += p.PredictedTime
		}
	}))

	// cloud: one instance's life on the mock provider.
	driver := cloud.NewMockDriver("mock", 0, 0.34)
	v["cloud.launch_cycle_ns"] = float64(perOp(5*m, func() {
		for i := 0; i < 5*m; i++ {
			info, _ := driver.Launch(cloud.LaunchRequest{Image: "img", BatchID: "b"})
			driver.Describe(info.ID)  //nolint:errcheck // just launched
			driver.Terminate(info.ID) //nolint:errcheck // just launched
		}
	}))

	// service: the gate around a no-op, and two handlers, with no socket.
	keys := service.NewKeyManager(service.LimitsFromPolicy(core.DefaultTierPolicy(), 1e9))
	key := keys.Issue("u", core.TierEnterprise)
	gate := keys.Gate(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	handle := func(h http.Handler, method, path, body string) {
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		req.Header.Set(service.APIKeyHeader, key.Key)
		h.ServeHTTP(httptest.NewRecorder(), req)
	}
	v["service.gate_ns"] = float64(perOp(5*m, func() {
		for i := 0; i < 5*m; i++ {
			handle(gate, http.MethodGet, "/x", "")
		}
	}))
	info := core.NewInformation()
	for b := 0; b < 200; b++ {
		info.Track(fmt.Sprintf("b%03d", b), "env", 100, 0) //nolint:errcheck // fresh ids
	}
	infoSvc := service.NewInformationService(info)
	round := 0
	v["service.info_sample_handler_us"] = perOp(m, func() {
		round++
		for i := 0; i < m; i++ {
			t := (round*100 + i/200) * 60
			handle(infoSvc, http.MethodPost, fmt.Sprintf("/batches/b%03d/samples", i%200),
				fmt.Sprintf(`{"t":%d,"completed":%d,"assigned":100}`, t, min(i/200, 100)))
		}
	}).Seconds() * 1e6
	credits := core.NewCreditSystem()
	credits.Deposit("u", 1e12)       //nolint:errcheck // positive amount
	credits.OrderQoS("u", "b", 1e11) //nolint:errcheck // funded above
	creditSvc := service.NewCreditService(credits)
	v["service.credit_bill_handler_us"] = perOp(m, func() {
		for i := 0; i < m; i++ {
			handle(creditSvc, http.MethodPost, "/orders/b/bill", `{"credits":1}`)
		}
	}).Seconds() * 1e6

	// service, emul: one round trip on the loopback sockets of a booted stack.
	s, err := bootStack(1)
	if err != nil {
		return
	}
	defer s.Close()
	v["service.loopback_rtt_us"] = perOp(m/10, func() {
		for i := 0; i < m/10; i++ {
			call(s.operator, http.MethodGet, s.url+"/healthz", "")
		}
	}).Seconds() * 1e6
	ids := make([]string, 200)
	for i := range ids {
		ids[i] = fmt.Sprintf("m%03d", i)
	}
	dgc := emul.NewDGClient(s.dgURL)
	v["emul.progress_batch_us"] = perOp(m/50, func() {
		for i := 0; i < m/50; i++ {
			dgc.ProgressBatch(ids) //nolint:errcheck // loopback fake
		}
	}).Seconds() * 1e6
	_ = sink
}
