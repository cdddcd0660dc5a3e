package experiments

import (
	"fmt"
	"sort"
	"strings"

	"spequlos/internal/campaign"
	"spequlos/internal/core"
	"spequlos/internal/metrics"
	"spequlos/internal/stats"
	"spequlos/internal/trace"
)

// ---------------------------------------------------------------------------
// Figure 1 — example BoT execution with the tail annotated.

// Figure1 is one execution profile with its noteworthy values.
type Figure1 struct {
	Series []metrics.SeriesPoint
	Tail   metrics.TailStats
	Result Result
}

// Figure1Job is the campaign job behind Fig 1: the example baseline
// execution, with its completion series kept.
func Figure1Job(p Profile) campaign.Job {
	return campaign.Job{
		Scenario: Scenario{
			Profile: p, Middleware: XWHEP, TraceName: "seti", BotClass: "SMALL", Offset: 0,
		},
		KeepSeries: true,
	}
}

// Figure1From derives Fig 1 from an already-executed store.
func Figure1From(store *campaign.ResultStore, p Profile) (Figure1, error) {
	j := Figure1Job(p)
	e, ok := store.Get(j.Key())
	if !ok || len(e.Series) == 0 {
		return Figure1{}, fmt.Errorf("experiments: store missing figure 1 series %s", j.Key())
	}
	return Figure1{Series: e.Series, Tail: e.Result.Tail, Result: e.Result}, nil
}

// Render summarizes the curve.
func (f Figure1) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1 — BoT execution profile (%s on %s, %s)\n",
		f.Result.BotClass, f.Result.TraceName, f.Result.Middleware)
	fmt.Fprintf(&b, "ideal time=%.0fs actual=%.0fs slowdown=%.2f tail tasks=%d/%d\n",
		f.Tail.IdealTime, f.Tail.CompletionTime, f.Tail.Slowdown, f.Tail.TailTasks, f.Tail.Size)
	step := len(f.Series) / 20
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(f.Series); i += step {
		pt := f.Series[i]
		bar := strings.Repeat("#", int(pt.Ratio*50))
		fmt.Fprintf(&b, "%8.0fs %-50s %.2f\n", pt.T, bar, pt.Ratio)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 2 — CDF of tail slowdown per middleware (baselines only).

// Figure2 is the tail-slowdown distribution per middleware.
type Figure2 struct {
	Slowdowns map[string][]float64 // by middleware, sorted
}

// Figure2From streams Fig 2 straight from the store, one cell at a time.
func Figure2From(store *campaign.ResultStore, p Profile, spec MatrixSpec) (Figure2, error) {
	f := Figure2{Slowdowns: map[string][]float64{}}
	err := EachPair(store, p, spec, func(pair Pair) error {
		r := pair.Base
		if !r.Completed || r.Strategy != "" {
			return nil
		}
		f.Slowdowns[r.Middleware] = append(f.Slowdowns[r.Middleware], r.Tail.Slowdown)
		return nil
	})
	if err != nil {
		return Figure2{}, err
	}
	for mw := range f.Slowdowns {
		sort.Float64s(f.Slowdowns[mw])
	}
	return f, nil
}

// FractionBelow returns P(slowdown < s) for a middleware.
func (f Figure2) FractionBelow(mw string, s float64) float64 {
	xs := f.Slowdowns[mw]
	if len(xs) == 0 {
		return 0
	}
	n := sort.SearchFloat64s(xs, s)
	return float64(n) / float64(len(xs))
}

// csv is figure2.csv: the CDF of each middleware at reference slowdowns.
func (f Figure2) csv() string {
	var b strings.Builder
	b.WriteString("slowdown,boinc_cdf,xwhep_cdf\n")
	for _, s := range []float64{1, 1.1, 1.2, 1.33, 1.5, 1.75, 2, 2.5, 3, 4, 5, 7.5, 10, 15, 20, 50, 100} {
		fmt.Fprintf(&b, "%g,%g,%g\n", s, f.FractionBelow(BOINC, s), f.FractionBelow(XWHEP, s))
	}
	return b.String()
}

// Render prints the CDF at reference slowdowns.
func (f Figure2) Render() string {
	tbl := TextTable{
		Title:   "Figure 2 — CDF of tail slowdown (fraction of executions with slowdown < S)",
		Headers: []string{"S", "BOINC", "XWHEP"},
	}
	for _, s := range []float64{1.0, 1.33, 1.5, 2, 3, 4, 5, 10, 20} {
		tbl.AddRow(f2(s), f2(f.FractionBelow(BOINC, s)), f2(f.FractionBelow(XWHEP, s)))
	}
	for i, mw := range []string{BOINC, XWHEP} {
		if xs := f.Slowdowns[mw]; len(xs) > 0 {
			row := []string{"p95:" + mw, "", ""}
			row[1+i] = f2(stats.QuantileSorted(xs, 0.95))
			tbl.AddRow(row...)
		}
	}
	return tbl.String()
}

// ---------------------------------------------------------------------------
// Table 1 — tail fractions per BE-DCI class and middleware.

// Table1 reports avg % of BoT in tail and avg % of time in tail.
type Table1 struct {
	Rows map[trace.Class]map[string]table1Cell
}

type table1Cell struct {
	TaskFrac float64
	TimeFrac float64
	N        int
}

// Table1From streams Table 1 straight from the store, one cell at a time.
func Table1From(store *campaign.ResultStore, p Profile, spec MatrixSpec) (Table1, error) {
	sums := map[trace.Class]map[string]*table1Cell{}
	err := EachPair(store, p, spec, func(pair Pair) error {
		r := pair.Base
		if !r.Completed || r.Strategy != "" {
			return nil
		}
		cls := trace.ClassOf(r.TraceName)
		if sums[cls] == nil {
			sums[cls] = map[string]*table1Cell{}
		}
		c := sums[cls][r.Middleware]
		if c == nil {
			c = &table1Cell{}
			sums[cls][r.Middleware] = c
		}
		c.TaskFrac += r.Tail.TailTaskFraction
		c.TimeFrac += r.Tail.TailTimeFraction
		c.N++
		return nil
	})
	if err != nil {
		return Table1{}, err
	}
	out := Table1{Rows: map[trace.Class]map[string]table1Cell{}}
	for cls, byMW := range sums {
		out.Rows[cls] = map[string]table1Cell{}
		for mw, c := range byMW {
			out.Rows[cls][mw] = table1Cell{
				TaskFrac: c.TaskFrac / float64(c.N),
				TimeFrac: c.TimeFrac / float64(c.N),
				N:        c.N,
			}
		}
	}
	return out, nil
}

// Render prints the Table 1 layout.
func (t Table1) Render() string {
	tbl := TextTable{
		Title: "Table 1 — tail fractions (averages over executions)",
		Headers: []string{"BE-DCI class", "%BoT in tail BOINC", "%BoT in tail XWHEP",
			"%time in tail BOINC", "%time in tail XWHEP"},
	}
	// A cell with no executions is "-", as in Table 4, not a 0.0% that
	// reads like a measurement.
	frac := func(c table1Cell, v float64) string {
		if c.N == 0 {
			return "-"
		}
		return pc(v)
	}
	for _, cls := range []trace.Class{trace.ClassDesktopGrid, trace.ClassBestEffortGrid, trace.ClassSpotInstances} {
		b, x := t.Rows[cls][BOINC], t.Rows[cls][XWHEP]
		tbl.AddRow(string(cls), frac(b, b.TaskFrac), frac(x, x.TaskFrac), frac(b, b.TimeFrac), frac(x, x.TimeFrac))
	}
	return tbl.String()
}

// ---------------------------------------------------------------------------
// Table 2 — BE-DCI trace statistics (generator validation).

// Table2Row compares a generated trace's statistics to the published ones.
type Table2Row struct {
	Name            string
	MeanNodes       float64
	PublishedMean   float64
	AvailQuartiles  [3]float64
	PublishedAvail  [3]float64
	PowerMean       float64
	PublishedPower  float64
	ConcurrencyDays float64
}

// BuildTable2 generates each trace and measures its statistics. days bounds
// the generated window; pool of 0 uses natural pools except seti (capped at
// 2000 for tractability, per-node process unchanged).
func BuildTable2(days float64, seed uint64) []Table2Row {
	published := map[string]struct {
		mean  float64
		av    [3]float64
		power float64
	}{
		"seti":    {24391, [3]float64{61, 531, 5407}, 1000},
		"nd":      {180, [3]float64{952, 3840, 26562}, 1000},
		"g5klyo":  {90.573, [3]float64{21, 51, 63}, 3000},
		"g5kgre":  {474.69, [3]float64{5, 182, 11268}, 3000},
		"spot10":  {82.186, [3]float64{4415, 5432, 17109}, 3000},
		"spot100": {823.95, [3]float64{1063, 5566, 22490}, 3000},
	}
	var rows []Table2Row
	for _, name := range TraceNames() {
		src, _ := TraceSource(name)
		pool := 0
		scale := 1.0
		if name == "seti" {
			pool = 2000
			scale = 31092.0 / 2000 // report scaled-up concurrency
		}
		tr := src.Generate(seed, days*86400, pool)
		st := tr.MeasureStats(900)
		pub := published[name]
		rows = append(rows, Table2Row{
			Name:            name,
			MeanNodes:       st.Concurrency.Mean * scale,
			PublishedMean:   pub.mean,
			AvailQuartiles:  [3]float64{st.Avail.Q25, st.Avail.Q50, st.Avail.Q75},
			PublishedAvail:  pub.av,
			PowerMean:       st.Power.Mean,
			PublishedPower:  pub.power,
			ConcurrencyDays: days,
		})
	}
	return rows
}

// RenderTable2 prints generated-vs-published statistics.
func RenderTable2(rows []Table2Row) string {
	tbl := TextTable{
		Title: "Table 2 — trace statistics: generated vs published",
		Headers: []string{"trace", "mean nodes", "published", "avail q25/q50/q75",
			"published q25/q50/q75", "power", "published"},
	}
	for _, r := range rows {
		tbl.AddRow(r.Name, f1(r.MeanNodes), f1(r.PublishedMean),
			fmt.Sprintf("%.0f/%.0f/%.0f", r.AvailQuartiles[0], r.AvailQuartiles[1], r.AvailQuartiles[2]),
			fmt.Sprintf("%.0f/%.0f/%.0f", r.PublishedAvail[0], r.PublishedAvail[1], r.PublishedAvail[2]),
			f0(r.PowerMean), f0(r.PublishedPower))
	}
	return tbl.String()
}

// ---------------------------------------------------------------------------
// Figure 4 — CCDF of Tail Removal Efficiency per strategy combination.

// Figure4 holds, per strategy label, the TRE samples (sorted).
type Figure4 struct {
	TRE map[string][]float64
}

// Figure4From streams the paired TREs of Fig 4 straight from the store, one
// cell at a time.
func Figure4From(store *campaign.ResultStore, p Profile, spec MatrixSpec) (Figure4, error) {
	f := Figure4{TRE: map[string][]float64{}}
	err := EachPair(store, p, spec, func(pair Pair) error {
		if !pair.Base.Completed {
			return nil
		}
		base := pair.Base
		for label, speq := range pair.Speq {
			if !speq.Completed {
				continue
			}
			tre, ok := metrics.TailRemovalEfficiency(
				speq.CompletionTime, base.CompletionTime, base.Tail.IdealTime)
			if !ok {
				continue
			}
			f.TRE[label] = append(f.TRE[label], tre)
		}
		return nil
	})
	if err != nil {
		return Figure4{}, err
	}
	for label := range f.TRE {
		sort.Float64s(f.TRE[label])
	}
	return f, nil
}

// FractionAbove returns P(TRE > p) for a strategy label.
func (f Figure4) FractionAbove(label string, p float64) float64 {
	xs := f.TRE[label]
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, v := range xs {
		if v > p {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// Render prints, per deployment group, the CCDF at reference efficiencies.
func (f Figure4) Render() string {
	labels := make([]string, 0, len(f.TRE))
	for l := range f.TRE {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	tbl := TextTable{
		Title:   "Figure 4 — Tail Removal Efficiency CCDF: fraction of executions with TRE > P",
		Headers: []string{"strategy", "P>0%", "P>25%", "P>50%", "P>75%", "P=100%", "median"},
	}
	for _, l := range labels {
		xs := f.TRE[l]
		full := 0
		for _, v := range xs {
			if v >= 0.999 {
				full++
			}
		}
		tbl.AddRow(l,
			f2(f.FractionAbove(l, 0)), f2(f.FractionAbove(l, 0.25)),
			f2(f.FractionAbove(l, 0.5)), f2(f.FractionAbove(l, 0.75)),
			f2(float64(full)/float64(max(len(xs), 1))),
			f2(stats.QuantileSorted(xs, 0.5)))
	}
	return tbl.String()
}

// ---------------------------------------------------------------------------
// Figure 5 — credit consumption per strategy combination.

// Figure5 reports the average percentage of provisioned credits spent.
type Figure5 struct {
	SpentFraction map[string]float64 // label → mean billed/allocated
	N             map[string]int
}

// Figure5From streams the credit use of Fig 5 straight from the store, one
// cell at a time.
func Figure5From(store *campaign.ResultStore, p Profile, spec MatrixSpec) (Figure5, error) {
	f := Figure5{SpentFraction: map[string]float64{}, N: map[string]int{}}
	sums := map[string]float64{}
	err := EachPair(store, p, spec, func(pair Pair) error {
		for label, speq := range pair.Speq {
			if !speq.Completed || speq.CreditsAllocated <= 0 {
				continue
			}
			sums[label] += speq.CreditsBilled / speq.CreditsAllocated
			f.N[label]++
		}
		return nil
	})
	if err != nil {
		return Figure5{}, err
	}
	for label, s := range sums {
		f.SpentFraction[label] = s / float64(f.N[label])
	}
	return f, nil
}

// Render prints consumption per combination.
func (f Figure5) Render() string {
	labels := make([]string, 0, len(f.SpentFraction))
	for l := range f.SpentFraction {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	tbl := TextTable{
		Title:   "Figure 5 — credits spent (% of provisioned; provisioned = 10% of workload)",
		Headers: []string{"strategy", "% credits used", "runs"},
	}
	for _, l := range labels {
		tbl.AddRow(l, pc(f.SpentFraction[l]), fmt.Sprintf("%d", f.N[l]))
	}
	return tbl.String()
}

// ---------------------------------------------------------------------------
// Figure 6 — average completion time with and without SpeQuloS.

// Figure6Cell is one bar pair of Fig 6.
type Figure6Cell struct {
	NoSpeq float64
	Speq   float64
	N      int
}

// Figure6 indexes cells by middleware, BoT class and trace.
type Figure6 struct {
	Strategy string
	Cells    map[string]map[string]map[string]Figure6Cell // mw → bot → trace
}

// Figure6From streams the paired completion times of Fig 6 straight from
// the store, one cell at a time.
func Figure6From(store *campaign.ResultStore, p Profile, spec MatrixSpec, label string) (Figure6, error) {
	type acc struct {
		base, speq float64
		n          int
	}
	sums := map[string]map[string]map[string]*acc{}
	err := EachPair(store, p, spec, func(pair Pair) error {
		speq, ok := pair.Speq[label]
		if !ok || !speq.Completed || !pair.Base.Completed {
			return nil
		}
		mw, bc, tn := pair.Base.Middleware, pair.Base.BotClass, pair.Base.TraceName
		if sums[mw] == nil {
			sums[mw] = map[string]map[string]*acc{}
		}
		if sums[mw][bc] == nil {
			sums[mw][bc] = map[string]*acc{}
		}
		a := sums[mw][bc][tn]
		if a == nil {
			a = &acc{}
			sums[mw][bc][tn] = a
		}
		a.base += pair.Base.CompletionTime
		a.speq += speq.CompletionTime
		a.n++
		return nil
	})
	if err != nil {
		return Figure6{}, err
	}
	out := Figure6{Strategy: label, Cells: map[string]map[string]map[string]Figure6Cell{}}
	for mw, byBot := range sums {
		out.Cells[mw] = map[string]map[string]Figure6Cell{}
		for bc, byTrace := range byBot {
			out.Cells[mw][bc] = map[string]Figure6Cell{}
			for tn, a := range byTrace {
				out.Cells[mw][bc][tn] = Figure6Cell{
					NoSpeq: a.base / float64(a.n),
					Speq:   a.speq / float64(a.n),
					N:      a.n,
				}
			}
		}
	}
	return out, nil
}

// Render prints the six panels (a–f).
func (f Figure6) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6 — average completion time (s), strategy %s\n", f.Strategy)
	for _, mw := range []string{BOINC, XWHEP} {
		for _, bc := range BotClasses() {
			cells := f.Cells[mw][bc]
			if len(cells) == 0 {
				continue
			}
			tbl := TextTable{
				Title:   fmt.Sprintf("%s & %s BoT", mw, bc),
				Headers: []string{"BE-DCI", "No SpeQuloS", "SpeQuloS", "speedup"},
			}
			for _, tn := range TraceNames() {
				c, ok := cells[tn]
				if !ok {
					continue
				}
				speedup := 0.0
				if c.Speq > 0 {
					speedup = c.NoSpeq / c.Speq
				}
				tbl.AddRow(tn, f0(c.NoSpeq), f0(c.Speq), f2(speedup))
			}
			b.WriteString(tbl.String())
			b.WriteString("\n")
		}
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 7 — execution stability (normalized completion-time repartition).

// Figure7 holds normalized completion-time histograms per middleware, with
// and without SpeQuloS.
type Figure7 struct {
	Strategy string
	NoSpeq   map[string]stats.Histogram
	Speq     map[string]stats.Histogram
	// StdNoSpeq/StdSpeq are the standard deviations of the normalized
	// samples (1 = the environment mean), a scalar stability measure.
	StdNoSpeq map[string]float64
	StdSpeq   map[string]float64
}

// Figure7From normalizes each completion time by the average of its
// environment (trace × middleware × BoT class, per §4.3.2) and histograms
// the result, accumulating the per-environment samples in one streaming
// pass over the store. Only the per-environment completion times are
// retained per cell — a few floats — not the pairs themselves.
func Figure7From(store *campaign.ResultStore, p Profile, spec MatrixSpec, label string) (Figure7, error) {
	byEnvBase := map[string][]float64{}
	byEnvSpeq := map[string][]float64{}
	err := EachPair(store, p, spec, func(pair Pair) error {
		if pair.Base.Completed {
			env := pair.Base.EnvKey()
			byEnvBase[env] = append(byEnvBase[env], pair.Base.CompletionTime)
		}
		if r, ok := pair.Speq[label]; ok && r.Completed {
			env := r.EnvKey()
			byEnvSpeq[env] = append(byEnvSpeq[env], r.CompletionTime)
		}
		return nil
	})
	if err != nil {
		return Figure7{}, err
	}
	group := func(byEnv map[string][]float64) map[string][]float64 {
		byMW := map[string][]float64{}
		for env, times := range byEnv {
			mw := strings.SplitN(env, "/", 2)[0]
			byMW[mw] = append(byMW[mw], metrics.NormalizeByMean(times)...)
		}
		return byMW
	}
	base := group(byEnvBase)
	speq := group(byEnvSpeq)
	out := Figure7{
		Strategy:  label,
		NoSpeq:    map[string]stats.Histogram{},
		Speq:      map[string]stats.Histogram{},
		StdNoSpeq: map[string]float64{},
		StdSpeq:   map[string]float64{},
	}
	for mw, xs := range base {
		out.NoSpeq[mw] = stats.NewHistogram(xs, 0, 5, 25)
		out.StdNoSpeq[mw] = stats.Summarize(xs).Std
	}
	for mw, xs := range speq {
		out.Speq[mw] = stats.NewHistogram(xs, 0, 5, 25)
		out.StdSpeq[mw] = stats.Summarize(xs).Std
	}
	return out, nil
}

// Render prints the stability summary.
func (f Figure7) Render() string {
	tbl := TextTable{
		Title:   "Figure 7 — execution stability: std of completion time normalized by environment mean",
		Headers: []string{"middleware", "No SpeQuloS", "SpeQuloS"},
	}
	for _, mw := range []string{BOINC, XWHEP} {
		tbl.AddRow(mw, f2(f.StdNoSpeq[mw]), f2(f.StdSpeq[mw]))
	}
	return tbl.String()
}

// ---------------------------------------------------------------------------
// Table 4 — completion-time prediction success rate.

// Table4 is the prediction success rate per trace and (bot, middleware).
type Table4 struct {
	Strategy string
	// Success[trace][bot/mw] with keys like "SMALL/BOINC"; "Mixed" totals.
	Success map[string]map[string]float64
	Overall float64
}

// Table4From fits α per environment over the SpeQuloS runs of one strategy
// (perfect-knowledge calibration, as §4.3.3 does) and scores the ±20%
// success rate of predictions made at 50% completion as the Oracle reports
// it: one stream of the store records every run, per cell and never
// materialized, then each environment's core.Calibration.Fit gives its hits.
func Table4From(store *campaign.ResultStore, p Profile, spec MatrixSpec, label string) (Table4, error) {
	cal := core.NewCalibration()
	type cell struct{ trace, key string }
	cells := map[string]cell{} // by environment key
	err := EachPair(store, p, spec, func(pair Pair) error {
		if r, ok := pair.Speq[label]; ok && r.Completed && r.TC50Base > 0 {
			cal.Record(r.EnvKey(), r.TC50Base, r.CompletionTime)
			cells[r.EnvKey()] = cell{r.TraceName, r.BotClass + "/" + r.Middleware}
		}
		return nil
	})
	if err != nil {
		return Table4{}, err
	}
	out := Table4{Strategy: label, Success: map[string]map[string]float64{}}
	mixed := map[string]core.CalibrationFit{}
	var all core.CalibrationFit
	for env, c := range cells {
		fit := cal.Fit(env)
		if out.Success[c.trace] == nil {
			out.Success[c.trace] = map[string]float64{}
		}
		out.Success[c.trace][c.key] = fit.SuccessRate()
		m := mixed[c.trace]
		m.Hits, m.Count = m.Hits+fit.Hits, m.Count+fit.Count
		mixed[c.trace] = m
		all.Hits, all.Count = all.Hits+fit.Hits, all.Count+fit.Count
	}
	for tn, m := range mixed {
		out.Success[tn]["Mixed"] = m.SuccessRate()
	}
	out.Overall = all.SuccessRate()
	return out, nil
}

// Render prints the Table 4 layout.
func (t Table4) Render() string {
	tbl := TextTable{
		Title: fmt.Sprintf("Table 4 — prediction success rate (±20%% at 50%% completion), strategy %s", t.Strategy),
		Headers: []string{"BE-DCI", "SMALL/BOINC", "SMALL/XWHEP", "BIG/BOINC", "BIG/XWHEP",
			"RANDOM/BOINC", "RANDOM/XWHEP", "Mixed"},
	}
	cell := func(tn, key string) string {
		if v, ok := t.Success[tn][key]; ok {
			return pc(v)
		}
		return "-"
	}
	for _, tn := range TraceNames() {
		if _, ok := t.Success[tn]; !ok {
			continue
		}
		tbl.AddRow(tn,
			cell(tn, "SMALL/BOINC"), cell(tn, "SMALL/XWHEP"),
			cell(tn, "BIG/BOINC"), cell(tn, "BIG/XWHEP"),
			cell(tn, "RANDOM/BOINC"), cell(tn, "RANDOM/XWHEP"),
			cell(tn, "Mixed"))
	}
	tbl.AddRow("Overall", "", "", "", "", "", "", pc(t.Overall))
	return tbl.String()
}
