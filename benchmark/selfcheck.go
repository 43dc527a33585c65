package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
)

// manifest is the part of BENCHMARK.json the self-check reads.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(root string) (*manifest, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4), the rule the
// driver applies to the ten runs it makes of each workload.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	ld := len(s)
	q := func(i int) float64 {
		j := min(max(i*(ld+1)/4, 1), ld-1)
		delta := float64(i*(ld+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// spread is the distance between the first and third quartile as a share
// of the median; with fewer than four values, the whole range.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	if len(xs) < 4 {
		return (slices.Max(xs) - slices.Min(xs)) / math.Abs(median(xs))
	}
	q1, q2, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(q2)
}

// selfCheck prints, per end-to-end metric and workload, the values of
// every repeat, their spread and the declared bound, and reports whether
// every spread stays within its bound (setup_s, as in the driver, is
// shown but not held to it).
func selfCheck(w io.Writer, m *manifest, runs map[string][]map[string]metric) bool {
	ok := true
	for _, wl := range m.Workloads {
		sets := runs[wl.Name]
		if len(sets) == 0 {
			continue
		}
		fmt.Fprintf(w, "== %s: %d repeats\n", wl.Name, len(sets))
		for _, em := range m.EndToEnd {
			var xs []float64
			for _, s := range sets {
				xs = append(xs, s[em.Name].Value)
			}
			sp := spread(xs)
			verdict := "ok"
			switch {
			case sp > em.Bound && em.Name != "setup_s":
				verdict, ok = "EXCEEDS BOUND", false
			case sp > em.Bound/3:
				verdict = "above a third of the bound"
			}
			fmt.Fprintf(w, "%-22s median %12.4f %-4s spread %.4f bound %.2f  %s  %.4g\n",
				em.Name, median(xs), em.Unit, sp, em.Bound, verdict, xs)
		}
	}
	return ok
}
