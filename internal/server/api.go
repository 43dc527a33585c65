// Package server implements wfsd's HTTP/JSON serving layer over the WFS
// engine: a registry of named loaded programs ("sessions"), bounded
// request concurrency, and handlers for program loading, incremental
// fact assertion, NBCQ answering, non-Boolean selection, ground-atom
// truth/explanation, and statistics. Every read is computed on the
// session's current immutable snapshot, which builds each model at most
// once. See DESIGN.md §Server.
//
// API summary (all request/response bodies JSON):
//
//	GET    /v1/healthz                     liveness
//	GET    /v1/stats                       server-wide stats
//	GET    /metrics                        Prometheus text metrics
//	GET    /v1/sessions                    list sessions
//	POST   /v1/sessions                    create session {name, program, options?}
//	GET    /v1/sessions/{name}             session info
//	DELETE /v1/sessions/{name}             delete session
//	POST   /v1/sessions/{name}/facts      add facts {facts: [{pred, args}]} (atomic batch)
//	POST   /v1/sessions/{name}/retract    retract facts {facts: [{pred, args}]} (atomic batch)
//	POST   /v1/sessions/{name}/query      NBCQ answer {query}; ?trace=1 adds an evaluation trace
//	POST   /v1/sessions/{name}/select     non-Boolean select {query}
//	POST   /v1/sessions/{name}/truth      ground-atom truth {atom}
//	POST   /v1/sessions/{name}/explain    forward proof {atom}
//	GET    /v1/sessions/{name}/stats      engine/model stats
//	GET    /v1/traces                      flight-recorder index (retained request traces)
//	GET    /v1/traces/{id}                full recorded trace by trace ID
package server

import (
	wfs "repro"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/trace"
)

// SessionOptions is the JSON surface of core.Options. Zero/absent fields
// select engine defaults; unknown fields are rejected (readJSON).
type SessionOptions struct {
	Depth           int `json:"depth,omitempty"`
	MaxAtoms        int `json:"max_atoms,omitempty"`
	Parallelism     int `json:"parallelism,omitempty"`
	AdaptiveStart   int `json:"adaptive_start,omitempty"`
	AdaptiveStep    int `json:"adaptive_step,omitempty"`
	StabilityWindow int `json:"stability_window,omitempty"`
	MaxDepth        int `json:"max_depth,omitempty"`
	GuardBand       int `json:"guard_band,omitempty"`
	// NoCertify keeps the heuristic adaptive ladder even when static
	// analysis certifies a chase depth bound (see wfs.Options.NoCertify).
	NoCertify bool `json:"no_certify,omitempty"`
}

// toOptions translates the JSON options into engine options.
func (o *SessionOptions) toOptions() wfs.Options {
	if o == nil {
		return wfs.Options{}
	}
	return wfs.Options{
		Depth:           o.Depth,
		MaxAtoms:        o.MaxAtoms,
		Parallelism:     o.Parallelism,
		AdaptiveStart:   o.AdaptiveStart,
		AdaptiveStep:    o.AdaptiveStep,
		StabilityWindow: o.StabilityWindow,
		MaxDepth:        o.MaxDepth,
		GuardBand:       o.GuardBand,
		NoCertify:       o.NoCertify,
	}
}

// CreateSessionRequest loads a program under a name.
type CreateSessionRequest struct {
	Name    string          `json:"name"`
	Program string          `json:"program"`
	Options *SessionOptions `json:"options,omitempty"`
}

// SessionInfo describes a live session.
type SessionInfo struct {
	Name      string `json:"name"`
	CreatedAt string `json:"created_at"` // RFC 3339
	Facts     int    `json:"facts"`
	Epoch     uint64 `json:"epoch"`
	Queries   int    `json:"embedded_queries"`
}

// AnalysisInfo is the JSON summary of the load-time static-analysis
// report (wfs.System.Analysis): termination classification, the
// certified chase depth bound (0 = no certificate), and the diagnostic
// tally. Diagnostics carries the Warning-and-above findings in create
// responses; Info findings are available through wfslint.
type AnalysisInfo struct {
	Classes        []string              `json:"classes,omitempty"`
	Terminates     bool                  `json:"terminates"`
	CertifiedDepth int                   `json:"certified_depth,omitempty"`
	Stratified     bool                  `json:"stratified"`
	Errors         int                   `json:"errors"`
	Warnings       int                   `json:"warnings"`
	Infos          int                   `json:"infos"`
	Diagnostics    []analysis.Diagnostic `json:"diagnostics,omitempty"`
}

// analysisDTO summarizes a report; withDiags attaches the Warning-and-
// above diagnostics (Error findings never reach a stored session — they
// are rejected at create — but Restore'd sessions may carry them).
func analysisDTO(rep *analysis.Report, withDiags bool) *AnalysisInfo {
	if rep == nil {
		return nil
	}
	nerr, nwarn, ninfo := rep.Counts()
	out := &AnalysisInfo{
		Classes:    rep.Classes,
		Terminates: rep.Terminates,
		Stratified: rep.Stratified,
		Errors:     nerr,
		Warnings:   nwarn,
		Infos:      ninfo,
	}
	if rep.Certificate != nil {
		out.CertifiedDepth = rep.Certificate.DepthBound
	}
	if withDiags {
		for _, d := range rep.Diagnostics {
			if d.Severity >= analysis.Warning {
				out.Diagnostics = append(out.Diagnostics, d)
			}
		}
	}
	return out
}

// CreateSessionResponse is the 201 body of session creation: the session
// info plus the static-analysis summary with any warnings.
type CreateSessionResponse struct {
	SessionInfo
	Analysis *AnalysisInfo `json:"analysis,omitempty"`
}

// SessionListResponse lists live sessions.
type SessionListResponse struct {
	Sessions []SessionInfo `json:"sessions"`
}

// Fact is one ground fact pred(args...).
type Fact struct {
	Pred string   `json:"pred"`
	Args []string `json:"args"`
}

// AddFactsRequest asserts (facts endpoint) or retracts (retract
// endpoint) a batch of facts in a session. Either way the batch applies
// as one atomic delta: all-or-nothing validation, one epoch bump.
type AddFactsRequest struct {
	Facts []Fact `json:"facts"`
}

// AddFactsResponse reports the post-write database state.
type AddFactsResponse struct {
	Added int    `json:"added"`
	Facts int    `json:"facts"`
	Epoch uint64 `json:"epoch"`
}

// RetractResponse reports the post-retraction database state.
type RetractResponse struct {
	Retracted int    `json:"retracted"`
	Facts     int    `json:"facts"`
	Epoch     uint64 `json:"epoch"`
}

// QueryRequest answers an NBCQ (query) or evaluates a ground atom (atom),
// depending on the endpoint.
type QueryRequest struct {
	Query string `json:"query,omitempty"`
	Atom  string `json:"atom,omitempty"`
}

// AnswerStats mirrors core.AnswerStats in JSON form.
type AnswerStats struct {
	Depths     []int    `json:"depths"`
	Answers    []string `json:"answers"`
	FinalDepth int      `json:"final_depth"`
	Exact      bool     `json:"exact"`
	Stable     bool     `json:"stable"`
}

func answerStatsDTO(s *core.AnswerStats) *AnswerStats {
	if s == nil {
		return nil
	}
	out := &AnswerStats{
		Depths:     s.Depths,
		FinalDepth: s.FinalDepth,
		Exact:      s.Exact,
		Stable:     s.Stable,
	}
	for _, a := range s.Answers {
		out.Answers = append(out.Answers, a.String())
	}
	return out
}

// QueryResponse is the answer to an NBCQ. Trace is present only when
// the request asked for one (?trace=1). TraceID accompanies the trace —
// the same evaluation is pinned in the flight recorder and retrievable
// later at GET /v1/traces/{trace_id}.
type QueryResponse struct {
	Query  string       `json:"query"` // normalized form
	Answer string       `json:"answer"`
	Stats  *AnswerStats `json:"stats,omitempty"`
	// Partial marks a gracefully degraded answer: the evaluation hit its
	// deadline, the client asked for ?partial=1, and Answer is the
	// deepest COMPLETED approximation rung's answer — sound for that
	// depth but not proven stable (Stats.Exact is false).
	Partial bool             `json:"partial,omitempty"`
	Trace   *trace.EvalTrace `json:"trace,omitempty"`
	TraceID string           `json:"trace_id,omitempty"`
}

// SelectResponse is the certain-answer relation of a non-Boolean query.
type SelectResponse struct {
	Query  string     `json:"query"` // normalized form
	Vars   []string   `json:"vars"`
	Tuples [][]string `json:"tuples"`
}

// TruthResponse is the three-valued truth of a ground atom.
type TruthResponse struct {
	Atom  string `json:"atom"`
	Truth string `json:"truth"`
}

// ExplainResponse is a rendered forward proof of a true ground atom.
type ExplainResponse struct {
	Atom  string `json:"atom"`
	True  bool   `json:"true"`
	Proof string `json:"proof,omitempty"`
}

// ModelStats mirrors core.ModelStats in JSON form.
type ModelStats struct {
	Depth           int  `json:"depth"`
	MaxDepthReached int  `json:"max_depth_reached"`
	Exact           bool `json:"exact"`
	Truncated       bool `json:"truncated"`
	UsableDepth     int  `json:"usable_depth"`
	ChaseAtoms      int  `json:"chase_atoms"`
	ChaseInstances  int  `json:"chase_instances"`
	TrueAtoms       int  `json:"true_atoms"`
	UndefinedAtoms  int  `json:"undefined_atoms"`
	FalseAtoms      int  `json:"false_atoms"`

	// Modular-evaluation shape of the last full solve: dependency-graph
	// SCC count, largest component size, components that needed the full
	// WFS fixpoint (internal negation cycle), and peak solver workers. A
	// mutation's warm start condenses only its affected cone, so after a
	// mutation these carry the last full solve's shape forward.
	SCCCount     int `json:"scc_count"`
	LargestSCC   int `json:"largest_scc"`
	HardSCCs     int `json:"hard_sccs"`
	SolveWorkers int `json:"solve_workers"`
}

// SessionStatsResponse reports engine/model statistics for one session.
// Engine carries the system's lifetime build counters (cumulative phase
// times, build/rebase counts) alongside the current model's shape.
type SessionStatsResponse struct {
	Name       string                    `json:"name"`
	Facts      int                       `json:"facts"`
	Epoch      uint64                    `json:"epoch"`
	Stratified bool                      `json:"stratified"`
	DeltaBound string                    `json:"delta_bound"`
	DeltaBits  int                       `json:"delta_bits"`
	Analysis   *AnalysisInfo             `json:"analysis,omitempty"`
	Model      ModelStats                `json:"model"`
	Engine     wfs.EngineMetricsSnapshot `json:"engine"`
}

func sessionStatsDTO(name string, st wfs.Stats, em wfs.EngineMetricsSnapshot, rep *analysis.Report) SessionStatsResponse {
	return SessionStatsResponse{
		Name:       name,
		Facts:      st.Facts,
		Epoch:      st.Epoch,
		Stratified: st.Stratified,
		DeltaBound: st.DeltaBound,
		DeltaBits:  st.DeltaBits,
		Analysis:   analysisDTO(rep, false),
		Engine:     em,
		Model: ModelStats{
			Depth:           st.Model.Depth,
			MaxDepthReached: st.Model.MaxDepthReached,
			Exact:           st.Model.Exact,
			Truncated:       st.Model.Truncated,
			UsableDepth:     st.Model.UsableDepth,
			ChaseAtoms:      st.Model.ChaseAtoms,
			ChaseInstances:  st.Model.ChaseInstances,
			TrueAtoms:       st.Model.TrueAtoms,
			UndefinedAtoms:  st.Model.UndefinedAtoms,
			FalseAtoms:      st.Model.FalseAtoms,
			SCCCount:        st.Model.SCCs,
			LargestSCC:      st.Model.LargestSCC,
			HardSCCs:        st.Model.HardSCCs,
			SolveWorkers:    st.Model.SolveWorkers,
		},
	}
}

// ServerStatsResponse reports server-wide statistics.
type ServerStatsResponse struct {
	Sessions int   `json:"sessions"`
	InFlight int64 `json:"in_flight"`
	// Limiter saturation: requests queued for a slot right now, and
	// cumulative rejections (429 after MaxQueueWait, 503 when the
	// client hung up while queued).
	Waiting          int64 `json:"waiting"`
	RejectedTimeout  int64 `json:"rejected_timeout"`
	RejectedCanceled int64 `json:"rejected_canceled"`
	MaxConcurrent    int   `json:"max_concurrent"`
	MaxQueueWaitMS   int64 `json:"max_queue_wait_ms"` // 0 = unbounded
	// Query governance: the configured server-side deadline (0 = none)
	// and how many queries hit it (504 or degraded ?partial=1 200) or
	// lost their client mid-evaluation (503).
	QueryTimeoutMS int64   `json:"query_timeout_ms"`
	QueryTimeouts  int64   `json:"query_timeouts"`
	QueryCancels   int64   `json:"query_cancels"`
	SlowQueries    int64   `json:"slow_queries"`
	UptimeSeconds  float64 `json:"uptime_seconds"`
	// WAL reports durability state; absent when the server runs without
	// a data directory.
	WAL *WALStats `json:"wal,omitempty"`

	// Cache and SingleflightShared are always zero and never serialized:
	// the server has no answer cache. Their only reason to exist is that
	// benchmark/layers.go, frozen until ROADMAP 6.2 re-records the
	// harness, still compiles against them; delete them with 6.2.
	Cache struct {
		Hits, Misses uint64
		Entries      int
	} `json:"-"`
	SingleflightShared int64 `json:"-"`
}

// WALBucket is one fsync-latency histogram bucket; LESeconds -1 marks
// the overflow bucket.
type WALBucket struct {
	LESeconds float64 `json:"le_seconds"`
	Count     int64   `json:"count"`
}

// WALStats reports the write-ahead-log/checkpoint subsystem: append and
// fsync volume on the mutation path, checkpoint activity, and what
// startup recovery replayed.
type WALStats struct {
	AppendedRecords    int64       `json:"appended_records"`
	AppendedBytes      int64       `json:"appended_bytes"`
	AppendErrors       int64       `json:"append_errors"`
	Fsyncs             int64       `json:"fsyncs"`
	FsyncTotalMS       float64     `json:"fsync_total_ms"`
	FsyncHistogram     []WALBucket `json:"fsync_histogram"`
	Checkpoints        int64       `json:"checkpoints"`
	CheckpointFailures int64       `json:"checkpoint_failures"`
	// OldestCheckpointAgeSeconds is the age of the most-overdue session
	// checkpoint — an upper bound on how much replay a crash right now
	// would cost.
	OldestCheckpointAgeSeconds float64 `json:"oldest_checkpoint_age_seconds"`
	// RecordsSinceCheckpoint is the most log records any session holds
	// past its newest checkpoint: recovery replays them, so restart time
	// grows with it.
	RecordsSinceCheckpoint int64   `json:"records_since_checkpoint"`
	RecoveredSessions      int     `json:"recovered_sessions"`
	ReplayedRecords        int     `json:"replayed_records"`
	ReplayDurationMS       float64 `json:"replay_duration_ms"`
	TornTails              int64   `json:"torn_tails"`
	// ReadonlySessions counts sessions whose WAL circuit breaker is
	// currently open: their mutations 503 while a background probe waits
	// for the disk to heal.
	ReadonlySessions int64 `json:"readonly_sessions"`
}

// ErrorResponse is the uniform error body. Diagnostics is present only
// when a program was rejected at session creation for Error-severity
// static-analysis findings; it then carries the full structured report
// (all severities) so clients can render line-accurate messages.
// TraceID is the request's trace identity (also on the X-Trace-Id
// response header and the access-log line) so a failure report can cite
// one identifier that correlates every artifact of the request.
type ErrorResponse struct {
	Error       string                `json:"error"`
	TraceID     string                `json:"trace_id,omitempty"`
	Diagnostics []analysis.Diagnostic `json:"diagnostics,omitempty"`
	// Budget is present on 422 atom-budget rejections: how many atoms
	// the chase had derived when it hit the configured MaxAtoms cap.
	// Raise max_atoms (or lower depth) and retry.
	Budget *BudgetInfo `json:"budget,omitempty"`
}

// BudgetInfo is the structured payload of an atom-budget rejection.
type BudgetInfo struct {
	Atoms int `json:"atoms"`
	Limit int `json:"limit"`
}

// TraceSummary is one flight-recorder entry in the GET /v1/traces
// index: identity, route, outcome, and why it was retained (Kept is
// "error", "slow", "pinned", or "sampled").
type TraceSummary struct {
	TraceID string  `json:"trace_id"`
	Route   string  `json:"route"`
	Path    string  `json:"path,omitempty"`
	Session string  `json:"session,omitempty"`
	Status  int     `json:"status"`
	Kept    string  `json:"kept"`
	Error   string  `json:"error,omitempty"`
	Start   string  `json:"start"` // RFC 3339 with nanoseconds
	DurMS   float64 `json:"dur_ms"`
}

// TraceIndexResponse is the GET /v1/traces body: retained traces,
// newest first, plus the recorder's occupancy and bound.
type TraceIndexResponse struct {
	Traces   []TraceSummary `json:"traces"`
	Entries  int            `json:"entries"`
	Capacity int            `json:"capacity"`
}
