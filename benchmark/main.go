// Command benchmark is the repository's benchmark: it builds cmd/wfsd,
// drives it as a child process over loopback HTTP with four named
// workloads, checks every reply against a closed-form oracle, and prints
// the end-to-end metrics (-trace 0) or the per-layer metrics (-trace 1)
// of BENCHMARK.json. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// defaultSeed is the seed the committed baseline was measured with
// (README.md names a second one for checking a later claim on unseen
// inputs).
const defaultSeed = 20130622 // PODS 2013

// ceiling bounds one workload's run: a hung server fails the run instead
// of stalling it.
const ceiling = 170 * time.Second

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all four, one after the other)")
		seed    = flag.Int64("seed", defaultSeed, "seed every input is generated from")
		seconds = flag.Float64("seconds", 10, "length of the measured phase")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics (live counters and the in-process layer run)")
		out     = flag.String("out", "", "directory for run records and span files (default <repo>/"+buildDir+"/out)")
		repeat  = flag.Int("repeat", 1, "run this many sets of the same inputs and check every end-to-end metric's spread against its bound in BENCHMARK.json")
	)
	flag.Parse()
	if err := pinToOneCPU(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	os.Exit(run(*name, *seed, *seconds, *trace, *out, *repeat))
}

func run(name string, seed int64, seconds float64, trace int, out string, repeat int) int {
	root, err := filepath.Abs("..") // "go run -C benchmark ." and "go test" both run in benchmark/
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if out == "" {
		out = filepath.Join(root, buildDir, "out")
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	defer killAll()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		killAll()
		os.Exit(130)
	}()

	bin, err := buildServer(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	cfg := config{root: root, bin: bin, out: out, seed: seed, seconds: seconds, scale: 1, rounds: setupRounds}
	names := workloadNames
	if name != "" {
		names = []string{name}
	}
	// Workload by workload, as the driver does: the repeats of one
	// workload sit next to each other in time.
	status := 0
	sets := make(map[string][]map[string]metric)
	for _, n := range names {
		for i := 0; i < repeat; i++ {
			res, err := guarded(cfg, n, trace)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			line, err := json.Marshal(res)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			if !res.Correct {
				status = 1
			}
			fmt.Println(string(line))
			sets[n] = append(sets[n], res.Metrics)
		}
	}
	if repeat > 1 && trace == 0 && status == 0 {
		m, err := readManifest(root)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		if !selfCheck(os.Stdout, m, sets) {
			status = 4
		}
	}
	return status
}

// guarded runs one workload under the wall-clock ceiling.
func guarded(cfg config, name string, trace int) (*output, error) {
	watchdog := time.AfterFunc(ceiling, func() {
		fmt.Fprintf(os.Stderr, "benchmark: %s exceeded its %s ceiling\n", name, ceiling)
		killAll()
		os.Exit(3)
	})
	defer watchdog.Stop()
	return runWorkload(cfg, name, trace)
}

func runWorkload(cfg config, name string, trace int) (*output, error) {
	w, err := newWorkload(name, cfg.seed, cfg.scale)
	if err != nil {
		return nil, err
	}
	if trace != 0 {
		return traceWorkload(cfg, w)
	}
	r, err := runLive(cfg, w, nil)
	if err != nil {
		return nil, err
	}
	m := r.endToEnd()
	printTable(os.Stderr, name, m, r.sampleCounts())
	if err := writeJSON(cfg.out, "e2e-"+name+".json", map[string]any{"record": newRecord(cfg, r), "metrics": m}); err != nil {
		return nil, err
	}
	return r.result(m, 0, nil), nil
}

// result counts every operation of the run, prints the failed ones with
// their requests, and wraps the metrics for the last line of output.
func (r *liveRun) result(m map[string]metric, nWrong int, wrong []string) *output {
	attempted, failed, failures := r.counts()
	for _, f := range append(failures, wrong...) {
		fmt.Fprintln(os.Stderr, "benchmark: wrong or failed:", f)
	}
	for name, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			m[name] = metric{0, v.Unit} // no sample at this size; JSON has no NaN
		}
	}
	// A wrong in-process answer of the layer run counts like a wrong reply.
	failed += nWrong
	return &output{Correct: failed == 0, Attempted: attempted + nWrong, Failed: failed, Metrics: m}
}

// traceWorkload is the -trace 1 run: a shortened live run for the
// server's own counters and the client's tail percentiles, then the
// in-process layer run over the same inputs.
func traceWorkload(cfg config, w *workload) (*output, error) {
	// A second instance of the workload yields the same sequences again,
	// for the layer run and the idle replay, without advancing the first.
	lw, err := newWorkload(w.name, cfg.seed, cfg.scale)
	if err != nil {
		return nil, err
	}
	in := drawInputs(lw)
	live := cfg
	live.seconds = cfg.seconds / 2 // the other half of the time goes to the layer run
	live.rounds = 1
	r, err := runLive(live, w, in.sequence)
	if err != nil {
		return nil, err
	}
	l, err := runLayers(cfg, lw, in)
	if err != nil {
		return nil, err
	}
	m := l.layerMetrics()
	for name, v := range r.liveMetrics() {
		m[name] = v
	}
	d := l.tr.durations()
	handler := median(append(d["server.handler_hit"], d["server.handler_miss"]...))
	m["server.http_overhead_us"] = metric{(median(r.idle.lat[clRead])/1e3 - handler) * 1e6, "us"}
	out := r.result(m, l.nWrong, l.wrong)
	printTable(os.Stderr, w.name, m, r.sampleCounts())
	err = writeJSON(cfg.out, "layers-"+w.name+".json", map[string]any{
		"record": newRecord(live, r), "metrics": m, "self_seconds": l.tr.selfSeconds(), "spans": l.tr.spans})
	return out, err
}
