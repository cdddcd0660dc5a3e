package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"spequlos/internal/stats"
)

// loadRuns reads the results of one side of a comparison: a results.json
// file (a list of results, or a single result), or a directory holding
// several results*.json files, one per run of the whole benchmark.
func loadRuns(path string) ([][]result, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if fi.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "results*.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
		if len(files) == 0 {
			return nil, fmt.Errorf("%s: no results*.json file", path)
		}
	}
	var runs [][]result
	for _, f := range files {
		buf, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var list []result
		if err := json.Unmarshal(buf, &list); err != nil {
			var one result
			if err := json.Unmarshal(buf, &one); err != nil {
				return nil, fmt.Errorf("%s: %w", f, err)
			}
			list = []result{one}
		}
		runs = append(runs, list)
	}
	return runs, nil
}

// series collects, per "workload/metric", the value of every run. Traced
// and untraced metric names never collide, so one map holds both passes.
func series(runs [][]result) map[string][]float64 {
	out := map[string][]float64{}
	for _, run := range runs {
		for _, res := range run {
			for name, m := range res.Metrics {
				key := res.Workload + "/" + name
				out[key] = append(out[key], m.Value)
			}
		}
	}
	return out
}

// spread is the width of a side's own runs as a share of their median: the
// range for up to three runs, the interquartile distance from four.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	if len(xs) < 4 {
		return (slices.Max(xs) - slices.Min(xs)) / m
	}
	return (stats.NearestRank(xs, 0.75) - stats.NearestRank(xs, 0.25)) / m
}

// compareResults prints one row per (workload, metric) with both medians,
// their ratio over the base, and for end-to-end metrics a verdict against
// the benchmark's bound:
//
//	PASS        the new median is no worse than the base's by more than the bound
//	WORSE       it is
//	UNRESOLVED  either side's own runs spread wider than the bound, and the
//	            new runs are not all better than every base run
//
// Per-layer metrics have no bound; exact counts are marked SAME or DIFFERS.
// It returns an error when any row is WORSE.
func compareResults(w io.Writer, basePath, newPath string) error {
	baseRuns, err := loadRuns(basePath)
	if err != nil {
		return err
	}
	newRuns, err := loadRuns(newPath)
	if err != nil {
		return err
	}
	base, cur := series(baseRuns), series(newRuns)
	fmt.Fprintf(w, "base %s (%d runs)  new %s (%d runs)\n", basePath, len(baseRuns), newPath, len(newRuns))
	fmt.Fprintf(w, "%-14s %-38s %14s %14s %10s  %s\n", "workload", "metric", "base", "new", "new/base", "verdict")
	worse := 0
	for _, wl := range workloads() {
		for _, specs := range [][]metricSpec{endToEnd, perLayer} {
			for _, s := range specs {
				b, okb := base[wl.name+"/"+s.Name]
				n, okn := cur[wl.name+"/"+s.Name]
				if !okb || !okn {
					continue
				}
				mb, mn := median(b), median(n)
				ratio := "-"
				if mb != 0 {
					ratio = fmt.Sprintf("%.4f", mn/mb)
				}
				verdict := ""
				switch {
				case s.Bound > 0:
					verdict = verdictOf(s, b, n)
					if verdict == "WORSE" {
						worse++
					}
				case s.Exact && mb == mn:
					verdict = "SAME"
				case s.Exact:
					verdict = "DIFFERS"
				}
				fmt.Fprintf(w, "%-14s %-38s %14.6g %14.6g %10s  %s\n", wl.name, s.Name, mb, mn, ratio, verdict)
			}
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d end-to-end metrics are WORSE than the base by more than their bound", worse)
	}
	return nil
}

// verdictOf judges one bounded metric.
func verdictOf(s metricSpec, base, cur []float64) string {
	mb, mn := median(base), median(cur)
	if mb == 0 {
		return "UNRESOLVED"
	}
	worseBy := (mn - mb) / mb
	allBetter := slices.Max(cur) < slices.Min(base)
	if s.Better == "higher" {
		worseBy = -worseBy
		allBetter = slices.Min(cur) > slices.Max(base)
	}
	if (spread(base) > s.Bound || spread(cur) > s.Bound) && !allBetter {
		return "UNRESOLVED"
	}
	if worseBy > s.Bound {
		return "WORSE"
	}
	return "PASS"
}
