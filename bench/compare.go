package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// specMetric is one metric as BENCHMARK.json defines it.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // end-to-end only: allowed worsening, as a share of the base median
}

// spec is the part of BENCHMARK.json the comparison needs.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// share is d as a share of |base| (0 when base is 0).
func share(d, base float64) float64 {
	if base == 0 {
		return 0
	}
	return d / math.Abs(base)
}

// worsening is how much b is worse than a, as a share of a: positive
// when b moved in the metric's bad direction.
func worsening(m specMetric, a, b float64) float64 {
	if m.Better == "lower" {
		return share(b-a, a)
	}
	return share(a-b, a)
}

// comparison is one metric × set row of a comparison.
type comparison struct {
	set, metric        string
	a, b               summary
	worse              float64
	bound              float64
	beyond, unresolved bool
}

// compareRuns lines up the medians of every metric of every set present
// in both a and b. An end-to-end metric is beyond its bound when b's
// median is worse than a's by more than the bound; it is unresolved when
// either side's own spread (IQR over median) exceeds the bound.
func compareRuns(s *spec, a, b []record) []comparison {
	sa, sb := summarizeSets(a), summarizeSets(b)
	sets := make([]string, 0, len(sa))
	for k := range sa {
		if sb[k] != nil {
			sets = append(sets, k)
		}
	}
	sort.Strings(sets)
	var out []comparison
	for _, set := range sets {
		for _, group := range [][]specMetric{s.EndToEnd, s.PerLayer} {
			for _, m := range group {
				qa, okA := sa[set][m.Name]
				qb, okB := sb[set][m.Name]
				if !okA || !okB {
					continue
				}
				c := comparison{set: set, metric: m.Name, a: qa, b: qb, bound: m.Bound,
					worse: worsening(m, qa.Median, qb.Median)}
				if m.Bound > 0 {
					c.beyond = c.worse > m.Bound
					c.unresolved = qa.IQRShare > m.Bound || qb.IQRShare > m.Bound
				}
				out = append(out, c)
			}
		}
	}
	return out
}

// compareFiles prints the comparison of two record files and returns
// how many end-to-end metrics are beyond their bound.
func compareFiles(w io.Writer, specPath, pathA, pathB string) (int, error) {
	s, err := loadSpec(specPath)
	if err != nil {
		return 0, err
	}
	a, err := loadRecords(pathA)
	if err != nil {
		return 0, err
	}
	b, err := loadRecords(pathB)
	if err != nil {
		return 0, err
	}
	rows := compareRuns(s, a, b)
	if len(rows) == 0 {
		return 0, fmt.Errorf("%s and %s share no workload and metric", pathA, pathB)
	}
	fmt.Fprintf(w, "%-22s %-40s %12s %12s %8s %7s %7s %6s  %s\n",
		"set", "metric", "median A", "median B", "worse", "IQR A", "IQR B", "bound", "verdict")
	beyond := 0
	for _, c := range rows {
		verdict, bound := "", "-"
		if c.bound > 0 {
			bound = fmt.Sprintf("%.0f%%", 100*c.bound)
			switch {
			case c.beyond:
				verdict = "WORSE THAN BOUND"
				beyond++
			case c.unresolved:
				verdict = "unresolved (spread above bound)"
			default:
				verdict = "ok"
			}
		}
		fmt.Fprintf(w, "%-22s %-40s %12.6g %12.6g %+7.1f%% %6.1f%% %6.1f%% %6s  %s\n",
			c.set, c.metric, c.a.Median, c.b.Median, 100*c.worse, 100*c.a.IQRShare, 100*c.b.IQRShare, bound, verdict)
	}
	return beyond, nil
}
