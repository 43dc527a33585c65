package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// liveProbe is one reading of the server's own always-on counters, taken
// from outside: the engine block of GET /v1/sessions/{name}/stats, the
// Prometheus text of GET /metrics, and /proc/<pid>/stat. The per-layer
// "live.*" metrics are differences of two readings around the measured
// phase.
type liveProbe struct {
	engine  engineCounters
	metrics map[string]float64 // unlabelled /metrics series by name
	cpuS    float64
}

// engineCounters mirrors wfs.EngineMetricsSnapshot as JSON.
type engineCounters struct {
	Builds     int64 `json:"builds"`
	Rebases    int64 `json:"rebases"`
	ChaseNS    int64 `json:"chase_ns"`
	GroundNS   int64 `json:"ground_ns"`
	CondenseNS int64 `json:"condense_ns"`
	SolveNS    int64 `json:"solve_ns"`
}

func (e *engineCounters) add(o engineCounters) {
	e.Builds += o.Builds
	e.Rebases += o.Rebases
	e.ChaseNS += o.ChaseNS
	e.GroundNS += o.GroundNS
	e.CondenseNS += o.CondenseNS
	e.SolveNS += o.SolveNS
}

func (e *engineCounters) sub(o engineCounters) {
	e.Builds -= o.Builds
	e.Rebases -= o.Rebases
	e.ChaseNS -= o.ChaseNS
	e.GroundNS -= o.GroundNS
	e.CondenseNS -= o.CondenseNS
	e.SolveNS -= o.SolveNS
}

// errNotFound is a 404: the session is between a delete and a create.
var errNotFound = errors.New("not found")

func get(c *client, path string) ([]byte, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	switch resp.StatusCode {
	case 200:
		return body, nil
	case 404:
		return nil, fmt.Errorf("GET %s: %w", path, errNotFound)
	}
	return nil, fmt.Errorf("GET %s: status %d: %.200s", path, resp.StatusCode, body)
}

// readEngine reads the session's lifetime engine counters. They restart
// from zero with every new session, so a workload that deletes sessions
// reads them before each delete (see runLive).
func readEngine(c *client) (engineCounters, error) {
	body, err := get(c, sessionPath("/stats"))
	if errors.Is(err, errNotFound) {
		return engineCounters{}, nil // the phase ended right after a delete: nothing to add
	}
	if err != nil {
		return engineCounters{}, err
	}
	var st struct {
		Engine engineCounters `json:"engine"`
	}
	err = json.Unmarshal(body, &st)
	return st.Engine, err
}

func readProbe(srv *server, c *client) (liveProbe, error) {
	p := liveProbe{metrics: make(map[string]float64)}
	var err error
	if p.engine, err = readEngine(c); err != nil {
		return p, err
	}
	body, err := get(c, "/metrics")
	if err != nil {
		return p, err
	}
	sc := bufio.NewScanner(strings.NewReader(string(body)))
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			p.metrics[name] = v
		}
	}
	p.cpuS, err = srv.cpuSeconds()
	return p, err
}

// minus is the change from before to p.
func (p liveProbe) minus(before liveProbe) liveProbe {
	d := liveProbe{engine: p.engine, metrics: make(map[string]float64), cpuS: p.cpuS - before.cpuS}
	d.engine.sub(before.engine)
	for k, v := range p.metrics {
		d.metrics[k] = v - before.metrics[k]
	}
	return d
}

// liveMetrics are the per-layer metrics only a real run can give: the
// server's own busy time per engine phase, its cache and WAL counters,
// its CPU and GC time and peak memory, and the client's view per
// operation class, tails included.
func (r *liveRun) liveMetrics() map[string]metric {
	e, pm := r.probe.engine, r.probe.metrics
	busy := float64(e.ChaseNS+e.GroundNS+e.CondenseNS+e.SolveNS)/1e9 + pm["wfsd_wal_fsync_duration_seconds_sum"]
	waited, samples, worst := 0.0, 0, 0.0
	for cl := clRead; cl < nClasses; cl++ {
		xs := r.measuredLat(cl)
		waited += sum(xs) / 1e3
		samples += len(xs)
		for _, x := range xs {
			worst = max(worst, x)
		}
	}
	return map[string]metric{
		"live.chase_s":             {float64(e.ChaseNS) / 1e9, "s"},
		"live.ground_s":            {float64(e.GroundNS) / 1e9, "s"},
		"live.condense_s":          {float64(e.CondenseNS) / 1e9, "s"},
		"live.solve_s":             {float64(e.SolveNS) / 1e9, "s"},
		"live.builds":              {float64(e.Builds), "count"},
		"live.rebases":             {float64(e.Rebases), "count"},
		"live.cache_hits":          {pm["wfsd_answer_cache_hits_total"], "count"},
		"live.cache_misses":        {pm["wfsd_answer_cache_misses_total"], "count"},
		"live.wal_bytes":           {pm["wfsd_wal_appended_bytes_total"], "B"},
		"live.fsync_s":             {pm["wfsd_wal_fsync_duration_seconds_sum"], "s"},
		"live.cpu_s":               {r.probe.cpuS, "s"},
		"live.gc_pause_ms":         {pm["go_gc_pause_seconds_sum"] * 1e3, "ms"},
		"live.unattributed_ratio":  {1 - busy/waited, "ratio"},
		"live.peak_rss_mb":         {r.liveRSS, "MB"},
		"client.query_p90_ms":      {percentile(r.measuredLat(clRead), 0.90), "ms"},
		"client.query_p99_ms":      {percentile(r.measuredLat(clRead), 0.99), "ms"},
		"client.mutate_p50_ms":     {median(r.writes(clMutate)), "ms"},
		"client.mutate_p90_ms":     {percentile(r.writes(clMutate), 0.90), "ms"},
		"client.mutate_p99_ms":     {percentile(r.writes(clMutate), 0.99), "ms"},
		"client.fresh_read_p50_ms": {median(r.writes(clFresh)), "ms"},
		"client.create_p50_ms":     {median(r.creates()), "ms"},
		"client.max_ms":            {worst, "ms"},
		"client.samples":           {float64(samples), "count"},
	}
}
