package server

import (
	"io"
	"log"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/trace"
	"repro/internal/wal"
)

// Config sizes the serving layer. Zero values select the defaults noted
// on each field.
type Config struct {
	// MaxSessions bounds the registry; 0 means DefaultMaxSessions,
	// negative means unbounded.
	MaxSessions int
	// MaxConcurrent bounds in-flight requests; 0 means
	// DefaultMaxConcurrent, negative means unlimited.
	MaxConcurrent int
	// MaxBodyBytes bounds request bodies; non-positive means
	// DefaultMaxBodyBytes (unlike the sibling fields, there is no
	// unlimited mode — an unbounded body is a trivial DoS).
	MaxBodyBytes int64
	// MaxQueueWait bounds how long a request may queue for a limiter
	// slot before a 429; 0 means DefaultMaxQueueWait, negative means
	// wait as long as the client does (the pre-bounded behavior).
	MaxQueueWait time.Duration
	// SlowQueryThreshold gates the slow-query log: queries slower
	// than this log one structured line with the phase
	// breakdown. 0 disables. The flight recorder also classifies
	// requests over this threshold as slow (always retained).
	SlowQueryThreshold time.Duration
	// TraceBufferSize bounds the flight recorder (completed request
	// traces retained for /v1/traces) in entries; 0 means
	// DefaultTraceBufferSize, negative disables the recorder (requests
	// still carry trace IDs, but no traces are retained).
	TraceBufferSize int
	// QueryTimeout bounds each query and select evaluation with a
	// server-side deadline: a query still running when it expires is
	// cooperatively cancelled (its limiter slot and goroutines released
	// within milliseconds) and answered 504, or — when the client opted
	// in with ?partial=1 — degraded to the deepest completed rung's
	// answer marked inexact. 0 disables the server-side deadline; the
	// client's own disconnect always cancels regardless.
	QueryTimeout time.Duration
	// WALFailureThreshold is how many CONSECUTIVE WAL append failures
	// trip a session's circuit breaker into read-only mode (mutations
	// 503, reads keep serving, a background probe heals the breaker when
	// the disk recovers); 0 means DefaultWALFailureThreshold, negative
	// disables the breaker.
	WALFailureThreshold int
	// WALProbeInterval is how often a read-only session probes its log
	// directory for healing; non-positive means DefaultWALProbeInterval.
	WALProbeInterval time.Duration
	// Logger receives panic and lifecycle logs; nil discards them.
	Logger *log.Logger
	// AccessLogger receives one structured line per request; nil
	// disables access logging.
	AccessLogger *log.Logger
}

// Serving-layer defaults.
const (
	DefaultMaxSessions     = 1024
	DefaultMaxConcurrent   = 64
	DefaultMaxBodyBytes    = 8 << 20 // 8 MiB: program text can be sizeable
	DefaultMaxQueueWait    = 5 * time.Second
	DefaultTraceBufferSize = 512
	// DefaultWALFailureThreshold trips a session read-only after this
	// many consecutive append failures: one failure is often a blip (a
	// transient EIO the client retries through); three in a row is a
	// full disk or a dead volume, and continuing to accept mutations
	// would reject every one while hammering the device.
	DefaultWALFailureThreshold = 3
	DefaultWALProbeInterval    = 2 * time.Second
)

func (c Config) withDefaults() Config {
	switch {
	case c.MaxSessions == 0:
		c.MaxSessions = DefaultMaxSessions
	case c.MaxSessions < 0:
		c.MaxSessions = 0 // registry: 0 = unbounded
	}
	switch {
	case c.MaxConcurrent == 0:
		c.MaxConcurrent = DefaultMaxConcurrent
	case c.MaxConcurrent < 0:
		c.MaxConcurrent = 0 // limiter: 0 = unlimited
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = DefaultMaxBodyBytes
	}
	switch {
	case c.MaxQueueWait == 0:
		c.MaxQueueWait = DefaultMaxQueueWait
	case c.MaxQueueWait < 0:
		c.MaxQueueWait = 0 // limiter: 0 = wait unbounded
	}
	switch {
	case c.TraceBufferSize == 0:
		c.TraceBufferSize = DefaultTraceBufferSize
	case c.TraceBufferSize < 0:
		c.TraceBufferSize = 0 // recorder: 0 = disabled
	}
	switch {
	case c.WALFailureThreshold == 0:
		c.WALFailureThreshold = DefaultWALFailureThreshold
	case c.WALFailureThreshold < 0:
		c.WALFailureThreshold = 0 // breaker: 0 = disabled
	}
	if c.WALProbeInterval <= 0 {
		c.WALProbeInterval = DefaultWALProbeInterval
	}
	if c.QueryTimeout < 0 {
		c.QueryTimeout = 0 // 0 = no server-side deadline
	}
	if c.Logger == nil {
		c.Logger = log.New(io.Discard, "", 0)
	}
	return c
}

// Server is the wfsd serving layer: session registry + request limiter,
// exposed as an http.Handler. Every read computes on its session's
// current snapshot, which builds each model at most once.
type Server struct {
	cfg         Config
	reg         *Registry
	slowQueries atomic.Int64 // queries over SlowQueryThreshold
	limiter     *limiter
	httpMetrics *httpMetrics

	// Resource-governance outcome counters, surfaced in /v1/stats and
	// /metrics: queries that hit the server-side deadline (504, or a
	// degraded 200 under ?partial=1) and queries whose client
	// disconnected mid-evaluation (503).
	queryTimeouts atomic.Int64
	queryCancels  atomic.Int64
	recorder      *trace.Recorder // flight recorder; nil = disabled
	started       time.Time

	// Durability (nil = in-memory only); set by OpenWAL before the
	// listener starts. recovery records what startup replay did, for
	// /v1/stats and /metrics.
	wal      *wal.Manager
	recovery RecoveryStats
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:         cfg,
		reg:         NewRegistry(cfg.MaxSessions),
		limiter:     newLimiter(cfg.MaxConcurrent, cfg.MaxQueueWait),
		httpMetrics: newHTTPMetrics(),
		started:     time.Now(),
	}
	if cfg.TraceBufferSize > 0 {
		s.recorder = trace.NewRecorder(cfg.TraceBufferSize, cfg.SlowQueryThreshold)
	}
	// Background work (checkpoints) records its traces too.
	s.reg.recorder = s.recorder
	// Circuit-breaker sizing for sessions that gain a WAL later
	// (OpenWAL recovery and every subsequent create).
	s.reg.breakerThreshold = cfg.WALFailureThreshold
	s.reg.probeInterval = cfg.WALProbeInterval
	return s
}

// Registry exposes the session registry (for preloading at startup).
func (s *Server) Registry() *Registry { return s.reg }

// RecoveryStats summarizes what OpenWAL's startup recovery did.
type RecoveryStats struct {
	Sessions        int           // sessions rebuilt from disk
	Skipped         int           // unrecoverable session directories (left on disk)
	ReplayedRecords int           // delta records applied across all sessions
	TornTails       int           // sessions whose log tail was repaired
	Duration        time.Duration // total recover-and-rebuild time
}

// OpenWAL enables durability: every session gains a write-ahead log of
// its mutation deltas plus periodic snapshot checkpoints under dir, and
// the sessions persisted by a previous process are recovered into the
// registry — warm systems at the exact epoch last durably committed.
// Must be called before the server starts handling requests.
func (s *Server) OpenWAL(dir string, wopts wal.Options) (RecoveryStats, error) {
	m, err := wal.Open(dir, wopts)
	if err != nil {
		return RecoveryStats{}, err
	}
	// Startup recovery is traced like a request and pinned into the
	// flight recorder: "why did restart take 40 seconds" is answered by
	// GET /v1/traces after the fact, per-session replay spans included.
	var root *trace.Span
	if s.recorder != nil {
		root = trace.New("startup-recovery")
	}
	start := time.Now()
	recs, skipped, err := m.RecoverTraced(root)
	if err != nil {
		return RecoveryStats{}, err
	}
	s.wal = m
	s.reg.wal = m
	s.reg.logger = s.cfg.Logger
	st := RecoveryStats{Skipped: len(skipped)}
	for _, sk := range skipped {
		s.cfg.Logger.Printf("wal: skipping unrecoverable session dir %s: %v", sk.Dir, sk.Err)
	}
	for _, rec := range recs {
		sess := &Session{
			Name:      rec.Name,
			CreatedAt: time.Now(),
			Sys:       rec.Sys,
			src:       rec.Source,
			opts:      rec.Options,
			wlog:      rec.Log,
		}
		if err := s.reg.adopt(sess); err != nil {
			s.cfg.Logger.Printf("wal: cannot adopt recovered session %q: %v", rec.Name, err)
			st.Skipped++
			continue
		}
		s.reg.attachWAL(sess)
		st.Sessions++
		st.ReplayedRecords += rec.Replayed
		if rec.TornTail {
			st.TornTails++
		}
	}
	st.Duration = time.Since(start)
	s.recovery = st
	if s.recorder != nil {
		root.End()
		s.recorder.Record(&trace.RequestTrace{
			TraceID:       trace.MintContext().TraceIDString(),
			Route:         "internal/startup-recovery",
			Status:        http.StatusOK,
			StartUnixNano: start.UnixNano(),
			DurationUS:    st.Duration.Microseconds(),
			Span:          root,
			Pinned:        true,
		})
	}
	return st, nil
}

// Close flushes durability state for a graceful shutdown: a final
// checkpoint per session (so a clean restart replays zero records), then
// fsync-and-close of every open segment. No-op without OpenWAL. Call
// after the HTTP listener has drained — mutations racing Close are
// rejected by the closed log rather than lost.
func (s *Server) Close() error {
	if s.wal == nil {
		return nil
	}
	// Join in-flight background checkpoints first: the final
	// CheckpointAll must be the last writer, not race a threshold-
	// triggered one still running. No new ones start — the listener has
	// drained, and checkpoints are only scheduled by mutation commits.
	s.reg.ckptWG.Wait()
	err := s.reg.CheckpointAll()
	if cerr := s.wal.Close(); err == nil {
		err = cerr
	}
	return err
}

// walStats renders the durability block of /v1/stats (nil when the
// server runs without a data dir).
func (s *Server) walStats() *WALStats {
	if s.wal == nil {
		return nil
	}
	m := s.wal.Metrics().Read()
	ws := &WALStats{
		AppendedRecords:    m.AppendedRecords,
		AppendedBytes:      m.AppendedBytes,
		AppendErrors:       m.AppendErrors,
		Fsyncs:             m.Fsyncs,
		FsyncTotalMS:       float64(m.FsyncNS) / 1e6,
		Checkpoints:        m.Checkpoints,
		CheckpointFailures: m.CheckpointFailures,
		RecoveredSessions:  s.recovery.Sessions,
		ReplayedRecords:    s.recovery.ReplayedRecords,
		ReplayDurationMS:   float64(s.recovery.Duration.Nanoseconds()) / 1e6,
		TornTails:          m.TornTails,
		ReadonlySessions:   s.reg.walReadonly.Load(),
	}
	for i, ub := range wal.FsyncBuckets {
		ws.FsyncHistogram = append(ws.FsyncHistogram, WALBucket{LESeconds: ub, Count: m.FsyncBuckets[i]})
	}
	ws.FsyncHistogram = append(ws.FsyncHistogram, WALBucket{LESeconds: -1, Count: m.FsyncBuckets[len(wal.FsyncBuckets)]})
	// Oldest (= most overdue) checkpoint and longest log tail across
	// sessions: the headline "how much replay would a crash right now
	// cost" signals.
	for _, name := range s.reg.Names() {
		if sess, err := s.reg.Get(name); err == nil && sess.wlog != nil {
			ws.OldestCheckpointAgeSeconds = max(ws.OldestCheckpointAgeSeconds, time.Since(sess.wlog.LastCheckpoint()).Seconds())
			ws.RecordsSinceCheckpoint = max(ws.RecordsSinceCheckpoint, sess.wlog.RecordsSinceCheckpoint())
		}
	}
	return ws
}

// Handler returns the fully-wired HTTP handler: routes inside panic
// recovery inside the concurrency limiter, with request metrics and
// access logging outermost so they also see limiter rejections and
// recovered panics as the status codes clients got. /v1/healthz,
// /v1/stats, and /metrics bypass the limiter so liveness probes and
// observability keep answering while every slot is occupied by slow
// evaluations (a saturated-but-healthy server must not be restarted by
// its orchestrator, and saturation is exactly when scrapes matter).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/sessions", s.handleListSessions)
	mux.HandleFunc("POST /v1/sessions", s.handleCreateSession)
	mux.HandleFunc("GET /v1/sessions/{name}", s.handleGetSession)
	mux.HandleFunc("DELETE /v1/sessions/{name}", s.handleDeleteSession)
	mux.HandleFunc("POST /v1/sessions/{name}/facts", s.handleAddFacts)
	mux.HandleFunc("POST /v1/sessions/{name}/retract", s.handleRetract)
	mux.HandleFunc("POST /v1/sessions/{name}/query", s.handleQuery)
	mux.HandleFunc("POST /v1/sessions/{name}/select", s.handleSelect)
	mux.HandleFunc("POST /v1/sessions/{name}/truth", s.handleTruth)
	mux.HandleFunc("POST /v1/sessions/{name}/explain", s.handleExplain)
	mux.HandleFunc("GET /v1/sessions/{name}/stats", s.handleSessionStats)
	limited := s.limiter.wrap(mux)

	root := http.NewServeMux()
	root.HandleFunc("GET /v1/healthz", s.handleHealthz)
	root.HandleFunc("GET /v1/stats", s.handleServerStats)
	root.HandleFunc("GET /v1/traces", s.handleTraceIndex)
	root.HandleFunc("GET /v1/traces/{id}", s.handleTraceGet)
	root.HandleFunc("GET /metrics", s.handleMetrics)
	root.Handle("/", limited)

	// routeOf resolves the registered mux pattern for metric labels:
	// the outer middleware runs before either mux has matched, so look
	// the pattern up the way ServeMux itself will. Requests falling
	// through root's "/" are resolved against the inner route table.
	routeOf := func(r *http.Request) string {
		if _, pat := root.Handler(r); pat != "" && pat != "/" {
			return pat
		}
		if _, pat := mux.Handler(r); pat != "" {
			return pat
		}
		return "unmatched"
	}
	return s.instrument(routeOf, recoverPanics(s.cfg.Logger, root))
}
