package server

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/trace"
	"repro/internal/wal"
)

// This file is wfsd's zero-dependency metrics surface: per-route request
// latency histograms and status counters collected by the instrument
// middleware, rendered together with limiter/session gauges as
// Prometheus text exposition format 0.0.4 on GET /metrics. Everything a
// scrape reads is either an atomic or held under the single httpMetrics
// mutex; nothing on this path takes a session's evaluation lock or
// forces a model build.

// latencyBuckets are the histogram upper bounds in seconds. Queries
// range from sub-millisecond warm matches to multi-second cold builds,
// so the buckets span four decades.
var latencyBuckets = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5}

// routeStats accumulates one route's observations. Guarded by
// httpMetrics.mu — route cardinality is tiny (the fixed route table), so
// a single mutex beats per-route sharding in everything but benchmarks
// nobody runs.
type routeStats struct {
	statuses map[int]int64 // requests by HTTP status code
	buckets  []int64       // cumulative-style counts are computed at render
	sum      float64       // total seconds
	count    int64
}

// httpMetrics is the per-route request latency/status collector.
type httpMetrics struct {
	mu     sync.Mutex
	routes map[string]*routeStats
}

func newHTTPMetrics() *httpMetrics {
	return &httpMetrics{routes: make(map[string]*routeStats)}
}

func (m *httpMetrics) observe(route string, status int, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rs := m.routes[route]
	if rs == nil {
		rs = &routeStats{
			statuses: make(map[int]int64),
			buckets:  make([]int64, len(latencyBuckets)),
		}
		m.routes[route] = rs
	}
	rs.statuses[status]++
	rs.sum += seconds
	rs.count++
	for i, ub := range latencyBuckets {
		if seconds <= ub {
			rs.buckets[i]++
			break // non-cumulative per-bucket count; summed at render
		}
	}
}

// statusRecorder captures the status code a handler writes so the
// instrument middleware can label its observations.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// instrument wraps h with request observability: per-route latency and
// status metrics, the request's trace identity (parsed from an incoming
// traceparent or minted fresh, echoed back as traceparent/X-Trace-Id
// response headers), the flight-recorder feed, and (when
// cfg.AccessLogger is set) one structured access-log line per request.
// routeOf resolves the registered mux pattern for labeling, keeping
// metric cardinality bounded by the route table rather than by raw
// request paths.
func (s *Server) instrument(routeOf func(*http.Request) string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := routeOf(r)
		tctx, parent := incomingContext(r)
		ht := &reqTrace{ctx: tctx, parent: parent}
		if s.recorder != nil {
			// The root span only exists when something retains it; with
			// the recorder disabled requests keep the nil no-op tracer.
			ht.root = trace.New(route)
		}
		r = r.WithContext(context.WithValue(r.Context(), traceCtxKey{}, ht))
		w.Header().Set("Traceparent", tctx.Traceparent())
		w.Header().Set("X-Trace-Id", tctx.TraceIDString())

		rec := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(rec, r)
		dur := time.Since(start)
		if rec.status == 0 {
			rec.status = http.StatusOK // handler wrote nothing: implicit 200
		}
		s.httpMetrics.observe(route, rec.status, dur.Seconds())
		session := sessionFromPath(r.URL.Path)
		if s.recorder != nil {
			ht.root.End()
			slow, pinned := ht.flags()
			s.recorder.Record(&trace.RequestTrace{
				TraceID:       tctx.TraceIDString(),
				SpanID:        tctx.SpanIDString(),
				ParentID:      parent,
				Route:         route,
				Path:          r.URL.Path,
				Session:       session,
				Status:        rec.status,
				Error:         ht.errorMsg(),
				StartUnixNano: start.UnixNano(),
				DurationUS:    dur.Microseconds(),
				Span:          ht.root,
				Slow:          slow,
				Pinned:        pinned,
			})
		}
		if s.cfg.AccessLogger != nil {
			line := fmt.Sprintf("method=%s route=%q path=%q status=%d dur=%s trace_id=%s",
				r.Method, route, r.URL.Path, rec.status, dur.Round(time.Microsecond),
				tctx.TraceIDString())
			if session != "" {
				line += " session=" + strconv.Quote(session)
			}
			s.cfg.AccessLogger.Print(line)
		}
	})
}

// sessionFromPath extracts the session name from /v1/sessions/{name}/...
// paths for access-log enrichment (the outer middleware runs before mux
// matching, so r.PathValue is not yet populated).
func sessionFromPath(path string) string {
	const prefix = "/v1/sessions/"
	rest, ok := strings.CutPrefix(path, prefix)
	if !ok || rest == "" {
		return ""
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// promWriter accumulates one Prometheus text-format scrape. Families are
// emitted with # HELP / # TYPE headers in the order written.
type promWriter struct {
	b strings.Builder
}

func (p *promWriter) family(name, help, typ string) {
	fmt.Fprintf(&p.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (p *promWriter) sample(name, labels string, v float64) {
	if labels != "" {
		labels = "{" + labels + "}"
	}
	fmt.Fprintf(&p.b, "%s%s %s\n", name, labels, formatFloat(v))
}

func formatFloat(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promLabel renders one escaped label pair per the exposition format
// (backslash, quote, and newline escaped inside quoted values).
func promLabel(key, val string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return key + `="` + r.Replace(val) + `"`
}

// handleMetrics serves the scrape. It bypasses the limiter (a saturated
// server must remain scrapeable — that is when the metrics matter most)
// and reads only atomics and registry snapshots, never a session's
// evaluation state.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	p := &promWriter{}

	// Per-route HTTP request metrics.
	s.httpMetrics.mu.Lock()
	routes := make([]string, 0, len(s.httpMetrics.routes))
	for route := range s.httpMetrics.routes {
		routes = append(routes, route)
	}
	sort.Strings(routes)
	p.family("wfsd_http_requests_total", "HTTP requests by route and status code.", "counter")
	for _, route := range routes {
		rs := s.httpMetrics.routes[route]
		codes := make([]int, 0, len(rs.statuses))
		for c := range rs.statuses {
			codes = append(codes, c)
		}
		sort.Ints(codes)
		for _, c := range codes {
			p.sample("wfsd_http_requests_total",
				promLabel("route", route)+","+promLabel("code", strconv.Itoa(c)),
				float64(rs.statuses[c]))
		}
	}
	p.family("wfsd_http_request_duration_seconds", "HTTP request latency by route.", "histogram")
	for _, route := range routes {
		rs := s.httpMetrics.routes[route]
		cum := int64(0)
		for i, ub := range latencyBuckets {
			cum += rs.buckets[i]
			p.sample("wfsd_http_request_duration_seconds_bucket",
				promLabel("route", route)+","+promLabel("le", formatFloat(ub)), float64(cum))
		}
		p.sample("wfsd_http_request_duration_seconds_bucket",
			promLabel("route", route)+","+promLabel("le", "+Inf"), float64(rs.count))
		p.sample("wfsd_http_request_duration_seconds_sum", promLabel("route", route), rs.sum)
		p.sample("wfsd_http_request_duration_seconds_count", promLabel("route", route), float64(rs.count))
	}
	s.httpMetrics.mu.Unlock()

	// Limiter saturation.
	p.family("wfsd_limiter_in_flight", "Requests currently executing.", "gauge")
	p.sample("wfsd_limiter_in_flight", "", float64(s.limiter.inFlight.Load()))
	p.family("wfsd_limiter_waiting", "Requests queued for a concurrency slot.", "gauge")
	p.sample("wfsd_limiter_waiting", "", float64(s.limiter.waiting.Load()))
	p.family("wfsd_limiter_max_concurrent", "Concurrency limit (0 = unlimited).", "gauge")
	p.sample("wfsd_limiter_max_concurrent", "", float64(s.cfg.MaxConcurrent))
	p.family("wfsd_limiter_rejected_total", "Requests rejected while queued, by reason.", "counter")
	p.sample("wfsd_limiter_rejected_total", promLabel("reason", "timeout"), float64(s.limiter.timeouts.Load()))
	p.sample("wfsd_limiter_rejected_total", promLabel("reason", "canceled"), float64(s.limiter.canceled.Load()))

	// Server-level gauges.
	p.family("wfsd_sessions", "Live sessions.", "gauge")
	p.sample("wfsd_sessions", "", float64(s.reg.Len()))
	p.family("wfsd_slow_queries_total", "Queries slower than the slow-query threshold.", "counter")
	p.sample("wfsd_slow_queries_total", "", float64(s.slowQueries.Load()))
	p.family("wfsd_query_timeouts_total", "Queries cancelled by the server-side deadline (504, or degraded 200 under ?partial=1).", "counter")
	p.sample("wfsd_query_timeouts_total", "", float64(s.queryTimeouts.Load()))
	p.family("wfsd_query_cancels_total", "Queries cancelled by client disconnect mid-evaluation.", "counter")
	p.sample("wfsd_query_cancels_total", "", float64(s.queryCancels.Load()))
	p.family("wfsd_uptime_seconds", "Seconds since server start.", "gauge")
	p.sample("wfsd_uptime_seconds", "", time.Since(s.started).Seconds())
	p.family("wfsd_build_info", "Constant 1, labeled with the Go version, GOMAXPROCS and the CPUs the process may run on.", "gauge")
	p.sample("wfsd_build_info", promLabel("go_version", runtime.Version())+","+
		promLabel("gomaxprocs", strconv.Itoa(runtime.GOMAXPROCS(0)))+","+
		promLabel("num_cpu", strconv.Itoa(runtime.NumCPU())), 1)

	s.writeTraceMetrics(p)
	s.writeWALMetrics(p)
	s.writeSessionMetrics(p)
	writeRuntimeMetrics(p)

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = io.WriteString(w, p.b.String())
}

// writeTraceMetrics emits the flight recorder's retention telemetry:
// how many traces were admitted by class, how many entries are held
// against capacity, and the eviction churn — the numbers that say
// whether an interesting trace is still retrievable.
func (s *Server) writeTraceMetrics(p *promWriter) {
	if s.recorder == nil {
		return
	}
	st := s.recorder.Stats()
	p.family("wfsd_trace_entries", "Request traces currently retained by the flight recorder.", "gauge")
	p.sample("wfsd_trace_entries", "", float64(st.Entries))
	p.family("wfsd_trace_capacity", "Flight recorder capacity in traces.", "gauge")
	p.sample("wfsd_trace_capacity", "", float64(st.Capacity))
	p.family("wfsd_trace_recorded_total", "Request traces admitted to the flight recorder, by retention class.", "counter")
	for _, class := range []string{trace.KeptError, trace.KeptSlow, trace.KeptPinned, trace.KeptSampled} {
		p.sample("wfsd_trace_recorded_total", promLabel("class", class), float64(st.Recorded[class]))
	}
	p.family("wfsd_trace_sampled_seen_total", "Routine requests offered to the trace reservoir (admitted or not).", "counter")
	p.sample("wfsd_trace_sampled_seen_total", "", float64(st.SampleSeen))
	p.family("wfsd_trace_evicted_total", "Request traces evicted from the flight recorder.", "counter")
	p.sample("wfsd_trace_evicted_total", "", float64(st.Evicted))
}

// writeRuntimeMetrics emits Go process health from runtime/metrics:
// goroutine count, heap gauges, the P count, GC CPU time, and the GC
// pause and scheduling-latency histograms.
func writeRuntimeMetrics(p *promWriter) {
	samples := []metrics.Sample{
		{Name: "/sched/goroutines:goroutines"},
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/gc/heap/goal:bytes"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/sched/gomaxprocs:threads"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/pauses:seconds"},
		{Name: "/sched/latencies:seconds"},
	}
	metrics.Read(samples)

	emit := func(i int, name, help, typ string) {
		var v float64
		switch samples[i].Value.Kind() {
		case metrics.KindUint64:
			v = float64(samples[i].Value.Uint64())
		case metrics.KindFloat64:
			v = samples[i].Value.Float64()
		default:
			return
		}
		p.family(name, help, typ)
		p.sample(name, "", v)
	}
	emit(0, "go_goroutines", "Goroutines that currently exist.", "gauge")
	emit(1, "go_heap_live_bytes", "Bytes occupied by live heap objects.", "gauge")
	emit(2, "go_heap_goal_bytes", "Heap size target of the next GC cycle.", "gauge")
	emit(3, "go_alloc_bytes_total", "Cumulative bytes allocated on the heap.", "counter")
	emit(4, "go_gomaxprocs", "Ps (GOMAXPROCS): goroutines that can run at once.", "gauge")
	// The runtime estimates CPU time from the time its Ps spend in each
	// state, so with more Ps than CPUs (wfsd on one CPU) GC time is
	// overstated; compare it with itself, not with the process's CPU time.
	emit(5, "go_gc_cpu_seconds_total", "Estimated CPU time spent in the garbage collector, pauses and background marking included.", "counter")
	emitHistogram(p, samples[6], "go_gc_pause_seconds", "Stop-the-world GC pause latency.",
		[]float64{1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1})
	// Scheduling latency is the time a runnable goroutine waited for a
	// P. It does not cover a goroutine blocked in the network poller
	// that no P has polled yet: a reader whose request sits unnoticed
	// behind a busy P shows only once it is runnable.
	emitHistogram(p, samples[7], "go_sched_latency_seconds", "Time goroutines spent runnable before they ran.",
		[]float64{1e-6, 1e-5, 1e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 1})
}

// emitHistogram folds a runtime/metrics histogram, which has hundreds of
// fine-grained buckets, into a Prometheus histogram with the given upper
// bounds. The sum is approximated from bucket midpoints (runtime/metrics
// exposes counts and boundaries, not an exact sum), the usual convention
// for re-exported runtime histograms.
func emitHistogram(p *promWriter, s metrics.Sample, name, help string, bounds []float64) {
	if s.Value.Kind() != metrics.KindFloat64Histogram {
		return
	}
	h := s.Value.Float64Histogram()
	folded := make([]uint64, len(bounds))
	var count uint64
	var sum float64
	for i, c := range h.Counts {
		count += c
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		// Approximate each bucket's mass by its midpoint; clamp the
		// infinite edge buckets to their finite bound.
		mid := (lo + hi) / 2
		switch {
		case math.IsInf(lo, -1):
			mid = hi
		case math.IsInf(hi, 1):
			mid = lo
		}
		sum += float64(c) * mid
		for j, ub := range bounds {
			if hi <= ub {
				folded[j] += c
				break
			}
		}
	}
	p.family(name, help, "histogram")
	var cum uint64
	for j, ub := range bounds {
		cum += folded[j]
		p.sample(name+"_bucket", promLabel("le", formatFloat(ub)), float64(cum))
	}
	p.sample(name+"_bucket", promLabel("le", "+Inf"), float64(count))
	p.sample(name+"_sum", "", sum)
	p.sample(name+"_count", "", float64(count))
}

// writeWALMetrics emits the durability families. All counters are
// atomics on the wal.Metrics set; nothing here touches a session log's
// lock, so a scrape never stalls behind an fsync.
func (s *Server) writeWALMetrics(p *promWriter) {
	if s.wal == nil {
		return
	}
	m := s.wal.Metrics().Read()
	p.family("wfsd_wal_appended_records_total", "Delta records appended to the write-ahead log.", "counter")
	p.sample("wfsd_wal_appended_records_total", "", float64(m.AppendedRecords))
	p.family("wfsd_wal_appended_bytes_total", "Bytes appended to the write-ahead log.", "counter")
	p.sample("wfsd_wal_appended_bytes_total", "", float64(m.AppendedBytes))
	p.family("wfsd_wal_append_errors_total", "Mutations rejected because their WAL append failed.", "counter")
	p.sample("wfsd_wal_append_errors_total", "", float64(m.AppendErrors))

	p.family("wfsd_wal_fsync_duration_seconds", "WAL fsync latency on the mutation path.", "histogram")
	cum := int64(0)
	for i, ub := range wal.FsyncBuckets {
		cum += m.FsyncBuckets[i]
		p.sample("wfsd_wal_fsync_duration_seconds_bucket", promLabel("le", formatFloat(ub)), float64(cum))
	}
	p.sample("wfsd_wal_fsync_duration_seconds_bucket", promLabel("le", "+Inf"), float64(m.Fsyncs))
	p.sample("wfsd_wal_fsync_duration_seconds_sum", "", float64(m.FsyncNS)/1e9)
	p.sample("wfsd_wal_fsync_duration_seconds_count", "", float64(m.Fsyncs))

	p.family("wfsd_wal_checkpoints_total", "Snapshot checkpoints written (including initial per-session ones).", "counter")
	p.sample("wfsd_wal_checkpoints_total", "", float64(m.Checkpoints))
	p.family("wfsd_wal_checkpoint_failures_total", "Checkpoint attempts that failed.", "counter")
	p.sample("wfsd_wal_checkpoint_failures_total", "", float64(m.CheckpointFailures))

	p.family("wfsd_wal_recovered_sessions", "Sessions rebuilt from the log at startup.", "gauge")
	p.sample("wfsd_wal_recovered_sessions", "", float64(s.recovery.Sessions))
	p.family("wfsd_wal_replayed_records_total", "Delta records replayed during startup recovery.", "counter")
	p.sample("wfsd_wal_replayed_records_total", "", float64(s.recovery.ReplayedRecords))
	p.family("wfsd_wal_replay_duration_seconds", "Startup recovery duration (checkpoint load + replay).", "gauge")
	p.sample("wfsd_wal_replay_duration_seconds", "", s.recovery.Duration.Seconds())
	p.family("wfsd_wal_torn_tails_total", "Torn/corrupt log tails dropped during recovery.", "counter")
	p.sample("wfsd_wal_torn_tails_total", "", float64(m.TornTails))
	p.family("wfsd_wal_readonly", "Sessions currently read-only (WAL circuit breaker open).", "gauge")
	p.sample("wfsd_wal_readonly", "", float64(s.reg.walReadonly.Load()))

	var logs []*Session
	for _, name := range s.reg.Names() {
		if sess, err := s.reg.Get(name); err == nil && sess.wlog != nil {
			logs = append(logs, sess)
		}
	}
	p.family("wfsd_wal_last_checkpoint_age_seconds", "Seconds since each session's newest checkpoint.", "gauge")
	for _, sess := range logs {
		p.sample("wfsd_wal_last_checkpoint_age_seconds", promLabel("session", sess.Name),
			time.Since(sess.wlog.LastCheckpoint()).Seconds())
	}
	p.family("wfsd_wal_records_since_checkpoint", "Log records each session holds past its newest checkpoint (what recovery replays).", "gauge")
	for _, sess := range logs {
		p.sample("wfsd_wal_records_since_checkpoint", promLabel("session", sess.Name),
			float64(sess.wlog.RecordsSinceCheckpoint()))
	}
}

// writeSessionMetrics emits per-session engine counters. Reads go through
// FactsEpoch and EngineMetrics only — both atomic-backed — so a scrape
// never forces evaluation or blocks behind one.
func (s *Server) writeSessionMetrics(p *promWriter) {
	type sessRow struct {
		name  string
		facts int
		epoch uint64
		em    engineMetricsRow
	}
	var rows []sessRow
	for _, name := range s.reg.Names() {
		sess, err := s.reg.Get(name)
		if err != nil {
			continue
		}
		facts, epoch := sess.Sys.FactsEpoch()
		em := sess.Sys.Metrics().Read()
		rows = append(rows, sessRow{name, facts, epoch, engineMetricsRow{
			builds: em.Builds, rebases: em.Rebases,
			chaseS: float64(em.ChaseNS) / 1e9, groundS: float64(em.GroundNS) / 1e9,
			condenseS: float64(em.CondenseNS) / 1e9, solveS: float64(em.SolveNS) / 1e9,
			chaseAtoms: em.ChaseAtoms, chaseInstances: em.ChaseInstances,
		}})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })

	emit := func(name, help, typ string, value func(sessRow) float64) {
		p.family(name, help, typ)
		for _, row := range rows {
			p.sample(name, promLabel("session", row.name), value(row))
		}
	}
	emit("wfsd_session_facts", "Database facts per session.", "gauge",
		func(r sessRow) float64 { return float64(r.facts) })
	emit("wfsd_session_epoch", "Database epoch per session.", "counter",
		func(r sessRow) float64 { return float64(r.epoch) })
	emit("wfsd_session_builds_total", "Model builds per session.", "counter",
		func(r sessRow) float64 { return float64(r.em.builds) })
	emit("wfsd_session_rebases_total", "Model builds served by delta-rebase per session.", "counter",
		func(r sessRow) float64 { return float64(r.em.rebases) })
	emit("wfsd_session_chase_atoms", "Latest build's chase universe size per session.", "gauge",
		func(r sessRow) float64 { return float64(r.em.chaseAtoms) })
	emit("wfsd_session_chase_instances", "Latest build's fired chase instances per session.", "gauge",
		func(r sessRow) float64 { return float64(r.em.chaseInstances) })

	p.family("wfsd_session_phase_seconds_total", "Cumulative build time per session by pipeline phase.", "counter")
	for _, row := range rows {
		for _, ph := range []struct {
			phase string
			secs  float64
		}{
			{"chase", row.em.chaseS}, {"ground", row.em.groundS},
			{"condense", row.em.condenseS}, {"solve", row.em.solveS},
		} {
			p.sample("wfsd_session_phase_seconds_total",
				promLabel("session", row.name)+","+promLabel("phase", ph.phase), ph.secs)
		}
	}
}

// engineMetricsRow is a flattened EngineMetricsSnapshot for emission.
type engineMetricsRow struct {
	builds, rebases, chaseAtoms, chaseInstances int64
	chaseS, groundS, condenseS, solveS          float64
}
