package experiments

import (
	"sort"

	"spequlos/internal/plot"
	"spequlos/internal/stats"
)

// Chart builders turning figure data into SVG specifications, matching the
// visual form of the paper's figures.

// Figure1Chart plots the BoT completion-ratio curve with its ideal-time
// reference line (Fig 1).
func Figure1Chart(f Figure1) plot.LineChart {
	var xs, ys []float64
	for _, pt := range f.Series {
		xs = append(xs, pt.T)
		ys = append(ys, pt.Ratio)
	}
	ideal := plot.Series{
		Name:   "constant completion rate",
		X:      []float64{0, f.Tail.IdealTime},
		Y:      []float64{0, 1},
		Dashed: true,
	}
	return plot.LineChart{
		Title:  "Figure 1 — BoT execution profile (" + f.Result.TraceName + ", " + f.Result.Middleware + ")",
		XLabel: "time (s)", YLabel: "BoT completion ratio",
		YMin: 0, YMax: 1.05,
		Series: []plot.Series{{Name: "BoT completion", X: xs, Y: ys}, ideal},
	}
}

// Figure2Chart plots the tail-slowdown CDFs on a log-10 X axis (Fig 2).
func Figure2Chart(f Figure2) plot.LineChart {
	chart := plot.LineChart{
		Title:  "Figure 2 — CDF of tail slowdown",
		XLabel: "tail slowdown S", YLabel: "fraction of executions with slowdown < S",
		LogX: true, YMin: 0, YMax: 1.05,
	}
	for _, mw := range []string{BOINC, XWHEP} {
		xs := f.Slowdowns[mw]
		if len(xs) == 0 {
			continue
		}
		var sx, sy []float64
		for i, v := range xs {
			sx = append(sx, v)
			sy = append(sy, float64(i+1)/float64(len(xs)))
		}
		chart.Series = append(chart.Series, plot.Series{Name: mw, X: sx, Y: sy, Dashed: mw == XWHEP})
	}
	return chart
}

// Figure4Chart plots the TRE CCDF of each strategy of one deployment group
// ("F", "R" or "D"), matching the paper's per-deployment panels (Fig 4a–c).
func Figure4Chart(f Figure4, deployCode string) plot.LineChart {
	chart := plot.LineChart{
		Title:  "Figure 4 — Tail Removal Efficiency CCDF (deployment " + deployCode + ")",
		XLabel: "tail removal efficiency P (%)", YLabel: "fraction of executions with TRE > P",
		YMin: 0, YMax: 1.05,
	}
	labels := make([]string, 0, len(f.TRE))
	for l := range f.TRE {
		if len(l) > 0 && l[len(l)-1:] == deployCode {
			labels = append(labels, l)
		}
	}
	sort.Strings(labels)
	for _, l := range labels {
		var xs, ys []float64
		for p := 0.0; p <= 100; p += 2 {
			xs = append(xs, p)
			ys = append(ys, f.FractionAbove(l, p/100))
		}
		chart.Series = append(chart.Series, plot.Series{Name: l, X: xs, Y: ys})
	}
	return chart
}

// Figure5Chart plots per-strategy credit consumption (Fig 5).
func Figure5Chart(f Figure5) plot.BarChart {
	chart := plot.BarChart{
		Title:  "Figure 5 — credits spent (% of provisioned)",
		YLabel: "% of provisioned credits",
		Bars:   []string{"% credits used"},
	}
	for _, l := range plot.SortedKeys(f.SpentFraction) {
		chart.Groups = append(chart.Groups, plot.BarGroup{
			Label: l, Values: []float64{f.SpentFraction[l] * 100},
		})
	}
	return chart
}

// Figure6Chart plots one panel of Fig 6: average completion times per
// BE-DCI, with and without SpeQuloS, for a (middleware, BoT class) pair.
func Figure6Chart(f Figure6, mw, botClass string) plot.BarChart {
	chart := plot.BarChart{
		Title:  "Figure 6 — " + mw + " & " + botClass + " BoT (" + f.Strategy + ")",
		YLabel: "completion time (s)",
		Bars:   []string{"No SpeQuloS", "SpeQuloS"},
	}
	cells := f.Cells[mw][botClass]
	for _, tn := range TraceNames() {
		c, ok := cells[tn]
		if !ok {
			continue
		}
		chart.Groups = append(chart.Groups, plot.BarGroup{
			Label: tn, Values: []float64{c.NoSpeq, c.Speq},
		})
	}
	return chart
}

// Figure7Chart plots the stability histograms of one middleware (Fig 7).
func Figure7Chart(f Figure7, mw string) plot.LineChart {
	chart := plot.LineChart{
		Title:  "Figure 7 — completion time repartition around the mean (" + mw + ")",
		XLabel: "completion time / environment average", YLabel: "fraction of executions",
	}
	add := func(name string, h map[string]stats.Histogram, dashed bool) {
		hist, ok := h[mw]
		if !ok || len(hist.Frac) == 0 {
			return
		}
		var xs, ys []float64
		for i, fr := range hist.Frac {
			xs = append(xs, hist.BinCenter(i))
			ys = append(ys, fr)
		}
		chart.Series = append(chart.Series, plot.Series{Name: name, X: xs, Y: ys, Dashed: dashed})
	}
	add("No SpeQuloS", f.NoSpeq, false)
	add("SpeQuloS", f.Speq, true)
	return chart
}
