package main

import (
	"maps"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs all four workloads and the layer run at toy sizes
// against a real wfsd child and checks that nothing fails and that the
// names emitted are exactly the names BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives a wfsd child process")
	}
	t.Cleanup(killAll)
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	m, err := readManifest(root)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := buildServer(root)
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range m.Workloads {
		declared = append(declared, w.Name)
	}
	if !slices.Equal(declared, workloadNames) {
		t.Fatalf("BENCHMARK.json declares workloads %v, the benchmark has %v", declared, workloadNames)
	}
	cfg := config{root: root, bin: bin, out: t.TempDir(), seed: defaultSeed, seconds: 0.4, scale: 0.02, rounds: 2}
	for _, name := range workloadNames {
		for trace, want := range [][]manifestMetric{m.EndToEnd, m.PerLayer} {
			res, err := runWorkload(cfg, name, trace)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			var wantNames []string
			for _, mm := range want {
				wantNames = append(wantNames, mm.Name)
				if got := res.Metrics[mm.Name].Unit; got != mm.Unit {
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", name, mm.Name, got, mm.Unit)
				}
			}
			slices.Sort(wantNames)
			got := slices.Sorted(maps.Keys(res.Metrics))
			if !slices.Equal(got, wantNames) {
				t.Errorf("%s trace=%d emits %v\nBENCHMARK.json declares %v", name, trace, got, wantNames)
			}
			for _, n := range got {
				if !metricName.MatchString(n) {
					t.Errorf("metric name %q is outside the allowed alphabet", n)
				}
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}

func TestOracleWinMove(t *testing.T) {
	// 0→1→2 (2 is stuck): 1 wins, 0 loses. 3⇄4 draw. 5→3 and 5→2: wins via 2.
	got := solveWinMove(6, [][2]int32{{0, 1}, {1, 2}, {3, 4}, {4, 3}, {5, 3}, {5, 2}})
	want := []truth{tFalse, tTrue, tFalse, tUndefined, tUndefined, tTrue}
	if !slices.Equal(got, want) {
		t.Errorf("solveWinMove = %v, want %v", got, want)
	}
}
