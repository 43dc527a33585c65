package server

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"time"

	wfs "repro"
	"repro/internal/trace"
)

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleServerStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, ServerStatsResponse{
		Sessions:           s.reg.Len(),
		Cache:              s.cache.Stats(),
		SingleflightShared: s.shared.Load(),
		InFlight:           s.limiter.inFlight.Load(),
		Waiting:            s.limiter.waiting.Load(),
		RejectedTimeout:    s.limiter.timeouts.Load(),
		RejectedCanceled:   s.limiter.canceled.Load(),
		MaxConcurrent:      s.cfg.MaxConcurrent,
		MaxQueueWaitMS:     s.cfg.MaxQueueWait.Milliseconds(),
		QueryTimeoutMS:     s.cfg.QueryTimeout.Milliseconds(),
		QueryTimeouts:      s.queryTimeouts.Load(),
		QueryCancels:       s.queryCancels.Load(),
		SlowQueries:        s.slowQueries.Load(),
		UptimeSeconds:      time.Since(s.started).Seconds(),
		WAL:                s.walStats(),
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
	sess := s.reg.Delete(name)
	if sess == nil {
		writeError(w, r, http.StatusNotFound, &ErrNoSession{Name: name})
		return
	}
	s.cache.DeleteSession(sess.ID())
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
	s.cache.PruneStale(sess.ID(), epoch)
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
	s.cache.PruneStale(sess.ID(), epoch)
	writeJSON(w, http.StatusOK, RetractResponse{Retracted: len(facts), Facts: nFacts, Epoch: epoch})
}

// cachedQuery wraps the fetch-normalize-lookup-compute-store cycle shared
// by the query-shaped endpoints. compute runs on a cache miss against the
// session's current snapshot: because a snapshot is immutable and carries
// its epoch, the computed answer is always consistent with the cache key —
// no post-compute epoch re-check is needed, and concurrent reads on one
// session share the snapshot instead of serializing behind the system's
// evaluation lock.
//
// Misses are additionally deduplicated through a singleflight group keyed
// by the same cache key: N identical queries arriving while the answer is
// still being computed (the stampede window the LRU cannot cover) wait
// for the one in-flight evaluation instead of computing N times. Shared
// results report cached=true — from the caller's perspective the answer
// came from someone else's computation.
func (s *Server) cachedQuery(sess *Session, kind, norm string, compute func(*wfs.Snapshot) (any, error)) (any, bool, error) {
	snap, err := sess.Sys.Snapshot()
	if err != nil {
		return nil, false, err
	}
	key := answerKey(sess.ID(), snap.Epoch(), kind, norm)
	if v, ok := s.cache.Get(key); ok {
		return v, true, nil
	}
	run := func() (any, error) {
		v, err := compute(snap)
		if err != nil {
			return nil, err
		}
		// Cache only if the session is still the registered one — a
		// concurrent DELETE purges the cache by session ID — and still at
		// the snapshot's epoch: a concurrent mutation prunes the
		// session's stale-epoch entries (PruneStale), and a Put landing
		// after either purge would squat unreachably in the LRU until it
		// ages out. The re-checks shrink that window from the whole
		// evaluation to the instants before Put; the LRU bound handles
		// the residue.
		if cur, err := s.reg.Get(sess.Name); err == nil && cur == sess {
			if _, epoch := sess.Sys.FactsEpoch(); epoch == snap.Epoch() {
				s.cache.Put(key, sess.ID(), snap.Epoch(), v)
			}
		}
		return v, nil
	}
	v, shared, err := s.flight.do(key, run)
	if shared && err != nil && isCancelErr(err) {
		// The leader's evaluation was cancelled by ITS request's
		// deadline or disconnect, not ours — our context may have plenty
		// of time left, and inheriting the leader's death sentence would
		// make one impatient client fail every rider behind it. Retry
		// once outside the group with our own compute (and so our own
		// context); if WE are then too slow, the error is genuinely ours.
		v, err = run()
		shared = false
	}
	if err != nil {
		return nil, false, err
	}
	if shared {
		s.shared.Add(1)
	}
	return v, shared, nil
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

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	sess, q, norm, ok := s.queryInput(w, r, "query")
	if !ok {
		return
	}
	if r.URL.Query().Get("trace") == "1" {
		s.tracedQuery(w, r, sess, q, norm)
		return
	}
	if r.URL.Query().Get("partial") == "1" {
		s.partialQuery(w, r, sess, q, norm)
		return
	}
	ctx, cancel := s.queryContext(r)
	defer cancel()
	ht := requestTrace(r)
	v, cached, err := s.cachedQuery(sess, "answer", norm, func(snap *wfs.Snapshot) (any, error) {
		if s.cfg.SlowQueryThreshold <= 0 && s.recorder == nil {
			ans, stats, err := snap.AnswerCtxStats(ctx, q)
			if err != nil {
				return nil, err
			}
			return QueryResponse{Query: norm, Answer: ans.String(), Stats: answerStatsDTO(stats)}, nil
		}
		// Slow-query logging or the flight recorder armed: run every
		// uncached compute under a coarse span hung off the request's
		// root, so a threshold breach can log where the time went and a
		// retained trace shows the evaluation, not a blank. Coarse
		// tracing skips the per-SCC and per-depth detail, so its cost
		// is a handful of span allocations per build — noise next to an
		// actual build.
		qspan := ht.span().Child("query")
		if qspan == nil {
			qspan = trace.New("query")
		}
		start := time.Now()
		ans, stats, err := snap.AnswerCtxTraced(ctx, q, qspan)
		qspan.End()
		if err != nil {
			return nil, err
		}
		if d := time.Since(start); s.cfg.SlowQueryThreshold > 0 && d >= s.cfg.SlowQueryThreshold {
			ht.markSlow()
			s.logSlow(ht, sess.Name, norm, d, qspan.Trace())
		}
		return QueryResponse{Query: norm, Answer: ans.String(), Stats: answerStatsDTO(stats)}, nil
	})
	if err != nil {
		writeError(w, r, s.queryStatus(err), err)
		return
	}
	resp := v.(QueryResponse)
	resp.Cached = cached
	writeJSON(w, http.StatusOK, resp)
}

// partialQuery serves ?partial=1: graceful degradation under the query
// deadline. An exact answer already in the cache is strictly better
// than any partial one, so the cache is consulted; but the computation
// runs OUTSIDE the singleflight group and a degraded answer is never
// stored — it is sound only for the depth the deadline allowed, and a
// later caller with more time deserves the exact one. When the deadline
// (or a disconnect, though then nobody reads the body) cancels the
// ladder after at least one approximation rung completed, the deepest
// completed rung's answer is served 200 with partial=true and
// stats.exact=false; with no completed rung there is nothing sound to
// say, and the request fails exactly like a non-partial one.
func (s *Server) partialQuery(w http.ResponseWriter, r *http.Request, sess *Session, q *wfs.Query, norm string) {
	ctx, cancel := s.queryContext(r)
	defer cancel()
	ht := requestTrace(r)
	snap, err := sess.Sys.Snapshot()
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	key := answerKey(sess.ID(), snap.Epoch(), "answer", norm)
	if v, ok := s.cache.Get(key); ok {
		resp := v.(QueryResponse)
		resp.Cached = true
		writeJSON(w, http.StatusOK, resp)
		return
	}
	qspan := ht.span().Child("query")
	if qspan == nil {
		qspan = trace.New("query")
	}
	start := time.Now()
	ans, stats, err := snap.AnswerCtxTraced(ctx, q, qspan)
	qspan.End()
	if d := time.Since(start); s.cfg.SlowQueryThreshold > 0 && d >= s.cfg.SlowQueryThreshold {
		ht.markSlow()
		s.logSlow(ht, sess.Name, norm, d, qspan.Trace())
	}
	if err != nil {
		status := s.queryStatus(err) // counts the timeout/cancel even when degrading
		if isCancelErr(err) && stats != nil && len(stats.Depths) > 0 {
			st := answerStatsDTO(stats)
			st.Exact = false
			writeJSON(w, http.StatusOK, QueryResponse{
				Query: norm, Answer: ans.String(), Stats: st, Partial: true,
			})
			return
		}
		writeError(w, r, status, err)
		return
	}
	// Exact answer within the deadline: cache it like the normal path.
	resp := QueryResponse{Query: norm, Answer: ans.String(), Stats: answerStatsDTO(stats)}
	if cur, gerr := s.reg.Get(sess.Name); gerr == nil && cur == sess {
		if _, epoch := sess.Sys.FactsEpoch(); epoch == snap.Epoch() {
			s.cache.Put(key, sess.ID(), snap.Epoch(), resp)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// tracedQuery answers ?trace=1 requests with a detailed evaluation
// trace, bypassing the answer cache and the singleflight group: the
// point of tracing is to observe what this evaluation costs, and a
// cached answer has no evaluation to observe. The response is never
// stored, so the trace-carrying body cannot be replayed to an untraced
// caller. The detailed span tree hangs under the request's root and the
// trace is pinned in the flight recorder, so it stays retrievable at
// /v1/traces/{id} after the response is gone.
func (s *Server) tracedQuery(w http.ResponseWriter, r *http.Request, sess *Session, q *wfs.Query, norm string) {
	ctx, cancel := s.queryContext(r)
	defer cancel()
	ht := requestTrace(r)
	ht.pin()
	snap, err := sess.Sys.Snapshot()
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	qspan := ht.span().ChildDetailed("query")
	if qspan == nil {
		qspan = trace.NewDetailed("query")
	}
	start := time.Now()
	ans, stats, err := snap.AnswerCtxTraced(ctx, q, qspan)
	qspan.End()
	if err != nil {
		writeError(w, r, s.queryStatus(err), err)
		return
	}
	et := qspan.Trace()
	if d := time.Since(start); s.cfg.SlowQueryThreshold > 0 && d >= s.cfg.SlowQueryThreshold {
		ht.markSlow()
		s.logSlow(ht, sess.Name, norm, d, et)
	}
	writeJSON(w, http.StatusOK, QueryResponse{
		Query:   norm,
		Answer:  ans.String(),
		Stats:   answerStatsDTO(stats),
		Trace:   et,
		TraceID: ht.TraceID(),
	})
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

func (s *Server) handleSelect(w http.ResponseWriter, r *http.Request) {
	sess, q, norm, ok := s.queryInput(w, r, "query")
	if !ok {
		return
	}
	ht := requestTrace(r)
	v, cached, err := s.cachedQuery(sess, "select", norm, func(snap *wfs.Snapshot) (any, error) {
		vars, tuples, err := snap.SelectTraced(q, ht.span())
		if err != nil {
			return nil, err
		}
		if vars == nil {
			vars = []string{} // JSON: [] not null (ground query)
		}
		if tuples == nil {
			tuples = [][]string{}
		}
		return SelectResponse{Query: norm, Vars: vars, Tuples: tuples}, nil
	})
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	resp := v.(SelectResponse)
	resp.Cached = cached
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleTruth(w http.ResponseWriter, r *http.Request) {
	sess, _, norm, ok := s.queryInput(w, r, "atom")
	if !ok {
		return
	}
	v, cached, err := s.cachedQuery(sess, "truth", norm, func(snap *wfs.Snapshot) (any, error) {
		t, err := snap.TruthOf(norm)
		if err != nil {
			return nil, err
		}
		return TruthResponse{Atom: norm, Truth: t.String()}, nil
	})
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	resp := v.(TruthResponse)
	resp.Cached = cached
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	sess, _, norm, ok := s.queryInput(w, r, "atom")
	if !ok {
		return
	}
	v, cached, err := s.cachedQuery(sess, "explain", norm, func(snap *wfs.Snapshot) (any, error) {
		// Explain distinguishes malformed input (error → 400) from an
		// atom that simply is not true (ok=false → empty proof).
		proof, isTrue, err := snap.Explain(norm)
		if err != nil {
			return nil, err
		}
		return ExplainResponse{Atom: norm, True: isTrue, Proof: proof}, nil
	})
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	resp := v.(ExplainResponse)
	resp.Cached = cached
	writeJSON(w, http.StatusOK, resp)
}

// queryInput decodes the request body of a query-shaped endpoint and
// prepares the query/atom text in the named field exactly once: the
// prepared query serves both as the canonical cache key (q.String()) and,
// for the query-shaped endpoints, as the compiled form answered against
// the snapshot — no re-parse on a cache miss.
func (s *Server) queryInput(w http.ResponseWriter, r *http.Request, field string) (*Session, *wfs.Query, string, bool) {
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
		// "? win(a)."). Still canonical, so still a stable cache key.
		norm = strings.TrimSuffix(strings.TrimPrefix(norm, "? "), ".")
	}
	return sess, q, norm, true
}

func (s *Server) handleSessionStats(w http.ResponseWriter, r *http.Request) {
	sess := s.session(w, r)
	if sess == nil {
		return
	}
	writeJSON(w, http.StatusOK,
		sessionStatsDTO(sess.Name, sess.Sys.Stats(), sess.Sys.Metrics().Read(), sess.Sys.Analysis()))
}
