package server

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"time"

	wfs "repro"
	"repro/internal/core"
	"repro/internal/trace"
)

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleServerStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, ServerStatsResponse{
		Sessions:         s.reg.Len(),
		InFlight:         s.limiter.inFlight.Load(),
		Waiting:          s.limiter.waiting.Load(),
		RejectedTimeout:  s.limiter.timeouts.Load(),
		RejectedCanceled: s.limiter.canceled.Load(),
		MaxConcurrent:    s.cfg.MaxConcurrent,
		MaxQueueWaitMS:   s.cfg.MaxQueueWait.Milliseconds(),
		QueryTimeoutMS:   s.cfg.QueryTimeout.Milliseconds(),
		QueryTimeouts:    s.queryTimeouts.Load(),
		QueryCancels:     s.queryCancels.Load(),
		SlowQueries:      s.slowQueries.Load(),
		UptimeSeconds:    time.Since(s.started).Seconds(),
		WAL:              s.walStats(),
	})
}

func (s *Server) sessionInfo(sess *Session) SessionInfo {
	facts, epoch := sess.Sys.FactsEpoch()
	return SessionInfo{
		Name:      sess.Name,
		CreatedAt: sess.CreatedAt.UTC().Format(time.RFC3339),
		Facts:     facts,
		Epoch:     epoch,
		Queries:   sess.Sys.NumQueries(),
	}
}

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	var req CreateSessionRequest
	if err := readJSON(w, r, &req, s.cfg.MaxBodyBytes); err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	sess, err := s.reg.CreateTraced(req.Name, req.Program, req.Options.toOptions(), requestTrace(r).span())
	if err != nil {
		writeError(w, r, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, CreateSessionResponse{
		SessionInfo: s.sessionInfo(sess),
		Analysis:    analysisDTO(sess.Sys.Analysis(), true),
	})
}

func (s *Server) handleListSessions(w http.ResponseWriter, r *http.Request) {
	resp := SessionListResponse{Sessions: []SessionInfo{}} // JSON: [] not null
	for _, name := range s.reg.Names() {
		if sess, err := s.reg.Get(name); err == nil {
			resp.Sessions = append(resp.Sessions, s.sessionInfo(sess))
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// session resolves the {name} path parameter, writing a 404 on failure.
func (s *Server) session(w http.ResponseWriter, r *http.Request) *Session {
	sess, err := s.reg.Get(r.PathValue("name"))
	if err != nil {
		writeError(w, r, statusFor(err), err)
		return nil
	}
	return sess
}

func (s *Server) handleGetSession(w http.ResponseWriter, r *http.Request) {
	if sess := s.session(w, r); sess != nil {
		writeJSON(w, http.StatusOK, s.sessionInfo(sess))
	}
}

func (s *Server) handleDeleteSession(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if s.reg.Delete(name) == nil {
		writeError(w, r, http.StatusNotFound, &ErrNoSession{Name: name})
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// mutationFacts validates the shared request shape of the facts/retract
// endpoints: a non-empty list of facts, each with a predicate.
func (s *Server) mutationFacts(w http.ResponseWriter, r *http.Request) (*Session, []Fact, bool) {
	sess := s.session(w, r)
	if sess == nil {
		return nil, nil, false
	}
	var req AddFactsRequest
	if err := readJSON(w, r, &req, s.cfg.MaxBodyBytes); err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return nil, nil, false
	}
	if len(req.Facts) == 0 {
		writeError(w, r, http.StatusBadRequest, fmt.Errorf("no facts given"))
		return nil, nil, false
	}
	for _, f := range req.Facts {
		if f.Pred == "" {
			writeError(w, r, http.StatusBadRequest, fmt.Errorf("fact with empty predicate"))
			return nil, nil, false
		}
	}
	return sess, req.Facts, true
}

func (s *Server) handleAddFacts(w http.ResponseWriter, r *http.Request) {
	sess, facts, ok := s.mutationFacts(w, r)
	if !ok {
		return
	}
	d := wfs.NewDelta()
	for _, f := range facts {
		d.Add(f.Pred, f.Args...)
	}
	// One delta: all-or-nothing validation, one epoch bump, and the
	// session's evaluation state rebased instead of discarded. The
	// request's context rides along so a client that disconnects before
	// the WAL append is asked for nothing — once the append acks, the
	// commit always completes regardless.
	root := requestTrace(r).span()
	if err := sess.Sys.ApplyCtxTraced(r.Context(), d, root); err != nil {
		writeError(w, r, mutationStatus(err), fmt.Errorf("%w (nothing applied)", err))
		return
	}
	s.warmAfterMutation(sess, root)
	nFacts, epoch := sess.Sys.FactsEpoch()
	writeJSON(w, http.StatusOK, AddFactsResponse{Added: len(facts), Facts: nFacts, Epoch: epoch})
}

// warmAfterMutation eagerly rebases the session's already-materialized
// evaluation state onto the post-mutation snapshot, under the mutating
// request's span. Two effects: the delta-rebase cost lands in the
// mutation's trace and latency (log-then-commit next to the rebase, per
// the flight-recorder contract) instead of ambushing the next reader,
// and models that were cold stay cold — this never triggers a fresh
// build.
func (s *Server) warmAfterMutation(sess *Session, root *trace.Span) {
	if snap, err := sess.Sys.SnapshotTraced(root); err == nil {
		snap.WarmRebased(root)
	}
}

func (s *Server) handleRetract(w http.ResponseWriter, r *http.Request) {
	sess, facts, ok := s.mutationFacts(w, r)
	if !ok {
		return
	}
	d := wfs.NewDelta()
	for _, f := range facts {
		d.Retract(f.Pred, f.Args...)
	}
	root := requestTrace(r).span()
	if err := sess.Sys.ApplyCtxTraced(r.Context(), d, root); err != nil {
		writeError(w, r, mutationStatus(err), fmt.Errorf("%w (nothing applied)", err))
		return
	}
	s.warmAfterMutation(sess, root)
	nFacts, epoch := sess.Sys.FactsEpoch()
	writeJSON(w, http.StatusOK, RetractResponse{Retracted: len(facts), Facts: nFacts, Epoch: epoch})
}

// queryContext derives the evaluation context of a query-shaped
// request: the request's own context — so a disconnected client's
// evaluation is cooperatively cancelled and its limiter slot freed
// within milliseconds — bounded by the configured server-side deadline.
func (s *Server) queryContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.cfg.QueryTimeout > 0 {
		return context.WithTimeout(r.Context(), s.cfg.QueryTimeout)
	}
	return r.Context(), func() {}
}

// handleQuery answers an NBCQ on the session's current snapshot, under
// the query deadline. The snapshot is immutable and carries its epoch,
// so the answer is that epoch's; concurrent identical queries share its
// models, each built at most once, and what every caller repeats is a
// sub-microsecond match.
//
// ?trace=1 records a detailed span tree under the request's root, pins
// the trace in the flight recorder (retrievable at /v1/traces/{id} after
// the response is gone) and returns it inline. Otherwise the evaluation
// runs under a coarse span only when the slow-query log or the flight
// recorder can use it: a threshold breach then logs where the time went
// and a retained trace shows the evaluation, not a blank.
//
// ?partial=1 degrades gracefully: when the deadline (or a disconnect,
// though then nobody reads the body) cancels the ladder after at least
// one approximation rung completed, the deepest completed rung's answer
// is served 200 with partial=true and stats.exact=false. With no
// completed rung there is nothing sound to say, and the request fails
// like any other.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	snap, q, norm, ok := s.queryInput(w, r, "query")
	if !ok {
		return
	}
	ctx, cancel := s.queryContext(r)
	defer cancel()
	ht := requestTrace(r)
	traced := r.URL.Query().Get("trace") == "1"
	var qspan *trace.Span
	switch {
	case traced:
		ht.pin()
		if qspan = ht.span().ChildDetailed("query"); qspan == nil {
			qspan = trace.NewDetailed("query")
		}
	case s.cfg.SlowQueryThreshold > 0 || s.recorder != nil:
		// Coarse tracing skips the per-SCC and per-depth detail, so its
		// cost is a handful of span allocations per build.
		if qspan = ht.span().Child("query"); qspan == nil {
			qspan = trace.New("query")
		}
	}
	var (
		ans   wfs.Truth
		stats *core.AnswerStats
		err   error
	)
	if qspan == nil {
		ans, stats, err = snap.AnswerCtxStats(ctx, q)
	} else {
		start := time.Now()
		ans, stats, err = snap.AnswerCtxTraced(ctx, q, qspan)
		qspan.End()
		if d := time.Since(start); s.cfg.SlowQueryThreshold > 0 && d >= s.cfg.SlowQueryThreshold {
			ht.markSlow()
			s.logSlow(ht, r.PathValue("name"), norm, d, qspan.Trace())
		}
	}
	resp := QueryResponse{Query: norm, Answer: ans.String(), Stats: answerStatsDTO(stats)}
	if err != nil {
		status := s.queryStatus(err) // counts the timeout/cancel even when degrading
		degrade := r.URL.Query().Get("partial") == "1" && isCancelErr(err) && stats != nil && len(stats.Depths) > 0
		if !degrade {
			writeError(w, r, status, err)
			return
		}
		resp.Stats.Exact = false
		resp.Partial = true
	}
	if traced {
		resp.Trace, resp.TraceID = qspan.Trace(), ht.TraceID()
	}
	writeJSON(w, http.StatusOK, resp)
}

// logSlow emits the structured slow-query line with the compact phase
// breakdown and bumps the counter surfaced in /v1/stats and /metrics.
// The trace_id ties the line to the flight-recorder entry (slow
// breaches are always retained), so the full span tree behind a logged
// line is one GET /v1/traces/{id} away.
func (s *Server) logSlow(ht *reqTrace, session, query string, d time.Duration, et *trace.EvalTrace) {
	s.slowQueries.Add(1)
	s.cfg.Logger.Printf("slow-query trace_id=%s session=%q query=%q dur=%s phases=%s",
		ht.TraceID(), session, query, d.Round(time.Microsecond), et.Compact())
}

// handleSelect returns the certain-answer relation of a non-Boolean
// query, under the query deadline like /query: a model build that
// outlives it is cancelled (504, or 503 for a disconnect) and installs
// nothing.
func (s *Server) handleSelect(w http.ResponseWriter, r *http.Request) {
	snap, q, norm, ok := s.queryInput(w, r, "query")
	if !ok {
		return
	}
	ctx, cancel := s.queryContext(r)
	defer cancel()
	vars, tuples, err := snap.Select(ctx, q, requestTrace(r).span())
	if err != nil {
		writeError(w, r, s.queryStatus(err), err)
		return
	}
	if vars == nil {
		vars = []string{} // JSON: [] not null (ground query)
	}
	if tuples == nil {
		tuples = [][]string{}
	}
	writeJSON(w, http.StatusOK, SelectResponse{Query: norm, Vars: vars, Tuples: tuples})
}

func (s *Server) handleTruth(w http.ResponseWriter, r *http.Request) {
	snap, _, norm, ok := s.queryInput(w, r, "atom")
	if !ok {
		return
	}
	t, err := snap.TruthOf(norm)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, TruthResponse{Atom: norm, Truth: t.String()})
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	snap, _, norm, ok := s.queryInput(w, r, "atom")
	if !ok {
		return
	}
	// Explain distinguishes malformed input (error → 400) from an atom
	// that simply is not true (ok=false → empty proof).
	proof, isTrue, err := snap.Explain(norm)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, ExplainResponse{Atom: norm, True: isTrue, Proof: proof})
}

// queryInput decodes the request body of a query-shaped endpoint,
// prepares the query/atom text in the named field exactly once, and
// takes the session's current snapshot, on which the endpoint computes.
// The prepared query serves both as the compiled form answered against
// the snapshot and, rendered (q.String()), as the canonical text echoed
// back.
func (s *Server) queryInput(w http.ResponseWriter, r *http.Request, field string) (*wfs.Snapshot, *wfs.Query, string, bool) {
	sess := s.session(w, r)
	if sess == nil {
		return nil, nil, "", false
	}
	var req QueryRequest
	if err := readJSON(w, r, &req, s.cfg.MaxBodyBytes); err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return nil, nil, "", false
	}
	src := req.Query
	if field == "atom" {
		src = req.Atom
	}
	if src == "" {
		writeError(w, r, http.StatusBadRequest, fmt.Errorf("missing %q field", field))
		return nil, nil, "", false
	}
	q, err := wfs.Prepare(src)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return nil, nil, "", false
	}
	norm := q.String()
	if field == "atom" {
		// Atoms echo back in atom form, not query form ("win(a)", not
		// "? win(a).").
		norm = strings.TrimSuffix(strings.TrimPrefix(norm, "? "), ".")
	}
	snap, err := sess.Sys.Snapshot()
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return nil, nil, "", false
	}
	return snap, q, norm, true
}

func (s *Server) handleSessionStats(w http.ResponseWriter, r *http.Request) {
	sess := s.session(w, r)
	if sess == nil {
		return
	}
	writeJSON(w, http.StatusOK,
		sessionStatsDTO(sess.Name, sess.Sys.Stats(), sess.Sys.Metrics().Read(), sess.Sys.Analysis()))
}
