package wfs

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/atom"
	"repro/internal/cancel"
	"repro/internal/core"
	"repro/internal/ground"
	"repro/internal/parser"
	"repro/internal/program"
	"repro/internal/trace"
)

// Snapshot is an immutable, fully evaluable view of a System at one
// mutation epoch: the compiled program and the database as of that epoch,
// over the System's one term/atom store. A Snapshot is safe for unlimited
// concurrent readers and acquires no mutex on the query-answering hot
// path.
//
// Evaluation state is built lazily, at most once per snapshot, and interns
// its chase-derived terms and atoms into the shared store: an ID means the
// same thing for ever, so another snapshot's writer or builds appending
// beside it change nothing this snapshot can observe. Every model is one
// core.Build: the first rung is built cold, rung k+1 deepens rung k —
// continuing its chase instead of re-chasing from the database, viewing
// its grounding with local IDs kept stable, and re-solving only the cone
// of the new records — and a rung rebased from an earlier epoch's
// same-depth rung runs the write the same way. Reads never intern: a query resolves its names by lookup, and a name
// the store does not know is in no atom.
//
// A Snapshot remains answerable forever: it keeps serving its epoch's
// consistent view even after the originating System has accepted further
// writes. Grab a fresh snapshot (System.Snapshot) to observe them.
type Snapshot struct {
	store   *atom.Store // the System's, shared
	prog    *program.Program
	db      program.Database
	queries []*program.Query
	opts    core.Options // defaults resolved
	epoch   uint64

	// numPreds and maxArity are the schema at publish, for the Stats δ
	// bound: later epochs may intern predicates into the shared store.
	numPreds, maxArity int

	// base is the model at the configured depth (Select, TruthOf, …): the
	// ladder rung of that depth when the schedule has one — always, for a
	// certified program — so each depth is evaluated once per snapshot.
	base  *snapModel
	rungs []*snapModel // adaptive-deepening ladder (Answer), chained

	// metrics points at the owning System's always-on counters; rung
	// builds fold their phase spans into it (EngineMetrics.observeBuild).
	// nil in tests that construct snapshots directly.
	metrics *EngineMetrics

	statsOnce sync.Once
	stats     Stats
}

// snapModel lazily evaluates one model. The mutex + done flag make
// construction race-free while letting a cancelled build abort cleanly: a
// build interrupted by its caller's deadline installs nothing, so the
// rung stays cold and the next caller (with a live token) rebuilds it — a
// cancelled request can never poison a rung for every later reader.
// After done is set, the model is read-only and reads take no lock. A
// snapModel with a prev pointer is a ladder rung: it deepens prev's model
// rather than building its own cold. A snapModel with a reb pointer
// instead rebases a materialized same-depth rung of an earlier epoch onto
// the database of its own — preferred, since it reuses all of that rung's
// work.
type snapModel struct {
	depth int
	prev  *snapModel // previous rung of this snapshot; nil for the first rung and for base
	// reb links a materialized same-depth rung of an earlier epoch (nil
	// when there is none: see rebaseSource). It is cleared once this rung
	// materializes — its own model is then the better rebase source for
	// later epochs, and holding the link would keep the older model
	// reachable. Atomic because a successor's link reads it concurrently
	// with the clear.
	reb  atomic.Pointer[snapModel]
	mu   sync.Mutex
	done atomic.Bool // set after a completed build installs m; read lock-free
	m    *core.Model
}

// get returns (building if necessary) the rung's model. tok, when
// non-nil, is the calling request's cancellation token: a build cut
// short by it returns the token's cause as the error and leaves the rung
// unbuilt. tr, when non-nil, is the caller's trace span: whichever
// goroutine wins the build lock records the build's phase tree under it
// (losers of the race observe only their wait; see Snapshot.rungAt). A
// build span is recorded even with tr nil — standalone, solely to feed
// the System's always-on EngineMetrics — which costs a handful of
// time.Now calls on an operation that chases and solves a whole model.
func (sm *snapModel) get(s *Snapshot, tok *cancel.Token, tr *trace.Span) (*core.Model, error) {
	if sm.done.Load() {
		return sm.m, nil
	}
	sm.mu.Lock()
	defer sm.mu.Unlock()
	if sm.done.Load() {
		return sm.m, nil
	}
	build := tr.Child("build-depth-" + strconv.Itoa(sm.depth))
	if build == nil {
		build = trace.New("build-depth-" + strconv.Itoa(sm.depth))
	}
	// Build from the same-depth rung of an earlier epoch when there is
	// one (a write), else from the previous rung (a deepening), else cold.
	var src *core.Model
	r := sm.reb.Load()
	if r != nil {
		src = r.m
	} else if sm.prev != nil {
		pm, err := sm.prev.get(s, tok, tr)
		if err != nil {
			build.MarkCancelled()
			build.End()
			return nil, err
		}
		src = pm
	}
	m := core.Build(src, s.prog, s.opts, sm.depth, s.db, tok, build)
	if m.Interrupted {
		build.MarkCancelled()
		build.End()
		return nil, cancelErr(tok)
	}
	endPre := build.Phase("precompute")
	m.Precompute()
	endPre()
	sm.m = m
	sm.reb.Store(nil) // release the previous epoch's model
	sm.done.Store(true)
	build.End()
	s.metrics.observeBuild(build, r != nil)
	return sm.m, nil
}

// cancelErr is the error a cancelled evaluation surfaces: the token's
// recorded cause (context.DeadlineExceeded for a blown deadline,
// context.Canceled for a disconnect or manual cancel), falling back to
// context.Canceled when an interrupted model arrives without a cause.
func cancelErr(tok *cancel.Token) error {
	if err := tok.Err(); err != nil {
		return err
	}
	return context.Canceled
}

// newSnapshot builds a snapshot over the System's store and a clipped
// database slice. When prevSnap is non-nil (the published snapshot a
// mutation succeeds), every rung links to its same-depth predecessor's
// rebase source, so evaluation can rebase materialized work onto the
// delta instead of rebuilding. Callers hold the system lock.
func newSnapshot(store *atom.Store, prog *program.Program, db program.Database,
	queries []*program.Query, opts core.Options, epoch uint64, prevSnap *Snapshot,
	metrics *EngineMetrics) *Snapshot {
	opts = opts.WithDefaults()
	s := &Snapshot{
		store:    store,
		prog:     prog,
		db:       db,
		queries:  queries,
		opts:     opts,
		epoch:    epoch,
		numPreds: store.NumPreds(),
		maxArity: store.MaxArity(),
		metrics:  metrics,
	}
	var prev *snapModel
	i := 0
	for d := opts.AdaptiveStart; d <= opts.MaxDepth; d += opts.AdaptiveStep {
		sm := &snapModel{depth: d, prev: prev}
		if prevSnap != nil && i < len(prevSnap.rungs) && prevSnap.rungs[i].depth == d {
			sm.reb.Store(prevSnap.rungs[i].rebaseSource())
		}
		s.rungs = append(s.rungs, sm)
		if d == opts.Depth {
			s.base = sm
		}
		prev = sm
		i++
	}
	if s.base == nil {
		s.base = &snapModel{depth: opts.Depth}
		if prevSnap != nil {
			s.base.reb.Store(prevSnap.base.rebaseSource())
		}
	}
	return s
}

// rebaseSource is the rung a successor of sm rebases from: sm itself once
// materialized, else sm's own source, so links never chain through cold
// rungs and a cold rung retains at most one older model.
func (sm *snapModel) rebaseSource() *snapModel {
	src := sm.reb.Load() // before done: a build that completes between still leaves sm
	if sm.done.Load() {
		return sm
	}
	return src
}

// Epoch returns the mutation epoch this snapshot was taken at.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// NumFacts returns the number of database facts in the snapshot.
func (s *Snapshot) NumFacts() int { return len(s.db) }

// compileFor resolves a prepared query's names against the System's
// store, by lookup only. A compile in which every name resolved is cached
// in the Query: IDs never change meaning, so it is valid on every
// snapshot of the System. One that met an unknown name is redone on each
// call, since a later epoch may intern that name.
func (s *Snapshot) compileFor(q *Query) (*program.Query, error) {
	if c := q.compiled.Load(); c != nil && c.store == s.store {
		return c.cq, nil
	}
	cq, resolved, err := program.ResolveQuery(q.ast, s.store)
	if err != nil {
		return nil, err
	}
	if resolved {
		q.compiled.Store(&compiledQuery{store: s.store, cq: cq})
	}
	return cq, nil
}

// answerLadder runs the adaptive ladder over the snapshot's cached
// rungs: the same deepening/stability algorithm as Engine.Answer, but
// each depth resolves to a model built at most once per snapshot.
// compile resolves the query for each rung; tr (nil on the hot path)
// records the per-depth phase breakdown.
func (s *Snapshot) answerLadder(compile func(*core.Model) (*program.Query, error), tok *cancel.Token, tr *trace.Span) (Truth, *core.AnswerStats, error) {
	modelAt := func(depth int, tr *trace.Span) (*core.Model, error) {
		return s.rungAt(depth, tok, tr)
	}
	return core.AdaptiveAnswerCancelTraced(s.opts, modelAt, compile, tok, tr)
}

// rungAt returns (building if necessary) the ladder model at the given
// depth. The rung schedule is derived from the same resolved options
// AdaptiveAnswer iterates with, so every requested depth has a rung; a
// mismatch (which would indicate option drift between the snapshot and
// the ladder) is reported as an error through answerLadder rather than a
// panic, so it can never crash a serving process. tr, when non-nil,
// receives the rung's build phase tree — or only the wait, if another
// goroutine is mid-build (the sync.Once winner records the work).
func (s *Snapshot) rungAt(depth int, tok *cancel.Token, tr *trace.Span) (*core.Model, error) {
	if len(s.rungs) == 0 || s.opts.AdaptiveStep <= 0 {
		return nil, fmt.Errorf("wfs: no snapshot rung at depth %d (empty ladder)", depth)
	}
	i := (depth - s.opts.AdaptiveStart) / s.opts.AdaptiveStep
	if i < 0 || i >= len(s.rungs) || s.rungs[i].depth != depth {
		return nil, fmt.Errorf("wfs: no snapshot rung at depth %d (schedule start %d step %d × %d rungs)",
			depth, s.opts.AdaptiveStart, s.opts.AdaptiveStep, len(s.rungs))
	}
	return s.rungs[i].get(s, tok, tr)
}

// Answer evaluates a prepared NBCQ by adaptive deepening and returns the
// three-valued answer. Safe for unlimited concurrent callers.
func (s *Snapshot) Answer(q *Query) (Truth, error) {
	t, _, err := s.AnswerWithStats(q)
	return t, err
}

// AnswerWithStats is Answer returning the adaptive-deepening trace.
func (s *Snapshot) AnswerWithStats(q *Query) (Truth, *core.AnswerStats, error) {
	return s.answerLadder(func(*core.Model) (*program.Query, error) { return s.compileFor(q) }, nil, nil)
}

// AnswerCtx is Answer under a context: the evaluation polls ctx's
// cancellation cooperatively (every ~1024 chase steps, every SCC of the
// fixpoint, every rung of the ladder) and returns ctx's error —
// context.DeadlineExceeded or context.Canceled — when it fires. A
// cancelled build installs nothing: the rung stays cold and later
// callers rebuild it. An uncancellable ctx (context.Background) costs
// one nil check per poll point.
func (s *Snapshot) AnswerCtx(ctx context.Context, q *Query) (Truth, error) {
	t, _, err := s.AnswerCtxStats(ctx, q)
	return t, err
}

// answerWarmExact answers q from the first ladder rung alone, when that
// rung is already materialized and its model is exact — the steady
// state of every warm snapshot of a terminating program, and so the
// shape almost every server query hits. In that state the ladder would
// return at its first rung anyway, so this path produces byte-identical
// answers and stats; what it skips is the per-call cancellation
// plumbing (token acquisition, option revalidation), which on a
// sub-microsecond warm answer costs more than the answer itself.
// ok=false (cold first rung, inexact model, or a query that fails to
// compile) falls back to the full token-carrying ladder, which
// re-encounters and properly reports any error.
func (s *Snapshot) answerWarmExact(q *Query) (Truth, *core.AnswerStats, bool) {
	if len(s.rungs) == 0 {
		return False, nil, false
	}
	sm := s.rungs[0]
	if !sm.done.Load() {
		return False, nil, false
	}
	m := sm.m
	if !m.Exact {
		return False, nil, false
	}
	cq, err := s.compileFor(q)
	if err != nil {
		return False, nil, false
	}
	ans := m.Answer(cq)
	return ans, &core.AnswerStats{
		Depths:     []int{sm.depth},
		Answers:    []Truth{ans},
		FinalDepth: sm.depth,
		Exact:      true,
		Stable:     true,
	}, true
}

// AnswerCtxStats is AnswerCtx returning the adaptive-deepening stats.
// On cancellation the stats of the rungs that completed before the
// deadline are returned alongside the error, so callers opting into
// graceful degradation can serve the deepest completed rung's answer
// (marked inexact) instead of nothing.
func (s *Snapshot) AnswerCtxStats(ctx context.Context, q *Query) (Truth, *core.AnswerStats, error) {
	// One lock-free poll up front keeps the contract that an
	// already-cancelled context never starts an evaluation, then the
	// warm-exact fast path answers without acquiring a token at all —
	// a warm exact answer cannot outlive any deadline worth setting.
	if done := ctx.Done(); done != nil {
		select {
		case <-done:
			err := ctx.Err()
			if err == nil {
				err = context.Canceled
			}
			return False, nil, err
		default:
		}
	}
	if t, st, ok := s.answerWarmExact(q); ok {
		return t, st, nil
	}
	tok := cancel.For(ctx)
	t, st, err := s.answerLadder(func(*core.Model) (*program.Query, error) { return s.compileFor(q) }, tok, nil)
	// The ladder has returned: every rung build ran synchronously under
	// its rung lock and every solver worker was joined, so nothing can
	// still poll the token — recycle it (it is a measurable share of the
	// warm answer path's cost).
	tok.Release()
	return t, st, err
}

// AnswerCtxTraced is AnswerCtx recording the evaluation's phase tree
// under the caller's already-open span (see AnswerTraced). Spans cut
// short by cancellation carry a "cancelled" counter.
func (s *Snapshot) AnswerCtxTraced(ctx context.Context, q *Query, root *trace.Span) (Truth, *core.AnswerStats, error) {
	tok := cancel.For(ctx)
	t, st, err := s.answerCancelTraced(q, tok, root)
	tok.Release() // see AnswerCtxStats: no reference survives the ladder
	return t, st, err
}

// TraceAnswer is Answer recording a detailed evaluation trace (see
// System.TraceAnswer). Rungs already materialized on this snapshot
// appear as match-only depth spans; a first traced query on a cold rung
// shows the full rebase/build cost it actually paid.
func (s *Snapshot) TraceAnswer(q *Query) (Truth, *core.AnswerStats, *trace.EvalTrace, error) {
	return s.TraceAnswerDetail(q, true)
}

// TraceAnswerDetail is TraceAnswer with the instrumentation level under
// caller control: detailed=false records only the coarse phase tree (no
// per-SCC timings, no per-depth frontier profile), cheap enough to run
// on every uncached query for threshold-gated slow-query logging.
func (s *Snapshot) TraceAnswerDetail(q *Query, detailed bool) (Truth, *core.AnswerStats, *trace.EvalTrace, error) {
	root := trace.New("query")
	if detailed {
		root = trace.NewDetailed("query")
	}
	t, st, err := s.answerTraced(q, root)
	return t, st, root.Trace(), err
}

// AnswerTraced is Answer recording the evaluation's phase tree under
// the caller's already-open span — the server's request-scoped tracing
// path, where the root span belongs to the HTTP request rather than to
// this evaluation. The instrumentation level follows the span's detail
// flag; a nil span is AnswerWithStats.
func (s *Snapshot) AnswerTraced(q *Query, root *trace.Span) (Truth, *core.AnswerStats, error) {
	return s.answerTraced(q, root)
}

// WarmRebased does nothing: a mutation of a warm system now publishes
// its successor with every previously warm model already rebased (see
// System.invalidateLocked), so a published snapshot has nothing left to
// warm. It stays only because benchmark/layers.go still calls it.
func (s *Snapshot) WarmRebased(*trace.Span) {}

// warm reports whether any model of the snapshot is materialized.
func (s *Snapshot) warm() bool {
	if s.base.done.Load() {
		return true
	}
	for _, sm := range s.rungs {
		if sm.done.Load() {
			return true
		}
	}
	return false
}

// warmLike materializes every model of s whose counterpart in prev — the
// snapshot s succeeds, built from the same options and so with the same
// rung schedule — is materialized, rebasing prev's work and recording the
// builds under tr. Uncancellable: the caller is a writer that has already committed.
func (s *Snapshot) warmLike(prev *Snapshot, tr *trace.Span) {
	// When base is one of the rungs the loop meets it a second time, done.
	if prev.base.done.Load() {
		s.base.get(s, nil, tr)
	}
	for i, sm := range s.rungs {
		if prev.rungs[i].done.Load() {
			sm.get(s, nil, tr)
		}
	}
}

// answerTraced runs the traced ladder under an already-open root span
// (shared with System.TraceAnswer, whose root also covers parse and
// snapshot acquisition).
func (s *Snapshot) answerTraced(q *Query, root *trace.Span) (Truth, *core.AnswerStats, error) {
	return s.answerCancelTraced(q, nil, root)
}

// answerCancelTraced is answerTraced under a cancellation token.
func (s *Snapshot) answerCancelTraced(q *Query, tok *cancel.Token, root *trace.Span) (Truth, *core.AnswerStats, error) {
	ladder := root.Child("ladder")
	t, st, err := s.answerLadder(func(*core.Model) (*program.Query, error) { return s.compileFor(q) }, tok, ladder)
	ladder.End()
	return t, st, err
}

// answerCompiled runs the ladder for a query compiled at load time
// (embedded '?' queries), valid against every model of the System.
func (s *Snapshot) answerCompiled(cq *program.Query) (Truth, error) {
	t, _, err := s.answerLadder(func(*core.Model) (*program.Query, error) { return cq, nil }, nil, nil)
	return t, err
}

// AnswerAll answers every query embedded in the loaded source. A ladder
// evaluation error (an invalid schedule or rung mismatch) is carried on
// the result rather than rendered as a silent False answer.
func (s *Snapshot) AnswerAll() []QueryResult {
	out := make([]QueryResult, 0, len(s.queries))
	for _, cq := range s.queries {
		t, err := s.answerCompiled(cq)
		out = append(out, QueryResult{Query: cq.Label, Answer: t, Err: err})
	}
	return out
}

// Select returns the certain answers of a non-Boolean prepared query as
// tuples of constant names in the query's variable order (§2.1: answers
// are tuples over ∆, so bindings to labelled nulls are excluded). The
// first return lists the variable names. Selection runs against the model
// at the configured depth.
//
// ctx bounds the model build this call may pay for: a build it cancels
// returns ctx's error and installs nothing, so the model stays cold for
// the next caller (the match itself does not poll). tr, when non-nil,
// records the build and a match child carrying the matcher's counters
// (core.Model.AnswerTraced).
func (s *Snapshot) Select(ctx context.Context, q *Query, tr *trace.Span) ([]string, [][]string, error) {
	tok := cancel.For(ctx)
	m, err := s.base.get(s, tok, tr)
	tok.Release() // the build ran synchronously; nothing polls the token now
	if err != nil {
		return nil, nil, err
	}
	cq, err := s.compileFor(q)
	if err != nil {
		return nil, nil, err
	}
	st := s.store
	ms := tr.Child("match")
	tuples := m.SelectTraced(cq, ms)
	ms.End()
	out := make([][]string, len(tuples))
	for i, tup := range tuples {
		row := make([]string, len(tup))
		for j, t := range tup {
			row[j] = st.Terms.String(t)
		}
		out[i] = row
	}
	return append([]string(nil), cq.VarNames...), out, nil
}

// groundAtom parses "pred(c1,…,cn)" and looks the atom up in the store,
// interning nothing: an atom the store has never seen is atom.NoAtom,
// which every model holds false.
func (s *Snapshot) groundAtom(src string) (atom.AtomID, error) {
	pq, err := parser.ParseQueryString(src)
	if err != nil {
		return atom.NoAtom, err
	}
	q, _, err := program.ResolveQuery(pq, s.store)
	if err != nil {
		return atom.NoAtom, err
	}
	if len(q.Pos) != 1 || len(q.Neg) != 0 || q.NumVars != 0 {
		return atom.NoAtom, fmt.Errorf("wfs: %q is not a single ground atom", src)
	}
	a, _ := s.store.InstantiateLookup(q.Pos[0], nil)
	return a, nil
}

// TruthOf returns the truth of a ground atom written in surface syntax,
// e.g. TruthOf("win(a)"), in the configured-depth model.
func (s *Snapshot) TruthOf(atomSrc string) (Truth, error) {
	m, _ := s.base.get(s, nil, nil)
	a, err := s.groundAtom(atomSrc)
	if err != nil {
		return False, err
	}
	return m.Truth(a), nil
}

// Explain renders a forward proof (Definition 5) of a ground atom. The
// boolean reports whether the atom is true in the model (only true atoms
// have forward proofs); the error reports malformed input. The two are
// distinct: a parse failure is an error, not "false".
func (s *Snapshot) Explain(atomSrc string) (string, bool, error) {
	m, _ := s.base.get(s, nil, nil)
	a, err := s.groundAtom(atomSrc)
	if err != nil {
		return "", false, err
	}
	m.PrepareExplanations() // idempotent: guarded by a per-model Once
	proof, ok := m.Explain(a)
	if !ok {
		return "", false, nil
	}
	return proof.Render(s.store), true, nil
}

// WCheck runs the goal-directed membership check on a ground atom.
func (s *Snapshot) WCheck(atomSrc string) (Truth, *core.WCheckStats, error) {
	m, _ := s.base.get(s, nil, nil)
	a, err := s.groundAtom(atomSrc)
	if err != nil {
		return False, nil, err
	}
	t, stats := m.WCheck(a)
	return t, stats, nil
}

// CheckConstraints evaluates the program's negative constraints and EGDs
// against the configured-depth model.
func (s *Snapshot) CheckConstraints() []core.Violation {
	m, _ := s.base.get(s, nil, nil)
	return m.CheckConstraints()
}

// TrueFacts renders all true atoms of the model, sorted.
func (s *Snapshot) TrueFacts() []string { return s.renderFacts(ground.True) }

// UndefinedFacts renders all undefined atoms of the model, sorted.
func (s *Snapshot) UndefinedFacts() []string { return s.renderFacts(ground.Undefined) }

// renderFacts renders every atom with the given truth value that query
// matching may use (Model.Usable): like Answer and Select, it excludes atoms
// beyond Model.UsableDepth, whose guard-band frontier truth values are
// unreliable (they can flip once deeper children exist) and which no
// query answer ever observes. It runs entirely on the snapshot — no
// system lock is held — and preallocates the output from a filtered count
// so rendering large models does not repeatedly regrow the slice.
func (s *Snapshot) renderFacts(tv Truth) []string {
	m, _ := s.base.get(s, nil, nil)
	st := m.Chase.Prog.Store
	n := 0
	for i, g := range m.GP.Atoms {
		if m.GM.Truth[i] == tv && m.Usable(g) {
			n++
		}
	}
	out := make([]string, 0, n)
	for i, g := range m.GP.Atoms {
		if m.GM.Truth[i] == tv && m.Usable(g) {
			out = append(out, st.String(g))
		}
	}
	sort.Strings(out)
	return out
}

// Stats summarizes the snapshot's evaluated model. The summary is computed
// once per snapshot and cached; concurrent callers share it.
func (s *Snapshot) Stats() Stats {
	s.statsOnce.Do(func() {
		m, _ := s.base.get(s, nil, nil)
		_, strat := s.prog.Stratify()
		delta := core.Delta(s.numPreds, s.maxArity)
		s.stats = Stats{
			Facts:      len(s.db),
			Epoch:      s.epoch,
			Model:      m.Stats(),
			Stratified: strat,
			DeltaBound: formatBig(delta),
			DeltaBits:  delta.BitLen(),
		}
	})
	return s.stats
}
