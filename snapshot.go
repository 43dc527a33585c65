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
	"repro/internal/program"
	"repro/internal/term"
	"repro/internal/trace"
)

// maxSnapshotChain bounds how many consecutive epochs may rebase their
// snapshots onto the previous one. Each rebased epoch adds one overlay
// store layer per materialized rung, and ID resolution walks the layer
// chain, so unbounded chaining would slowly tax every read; past the
// budget the next snapshot rebuilds fresh, compacting the chain.
const maxSnapshotChain = 8

// Snapshot is an immutable, fully evaluable view of a System at one
// mutation epoch: a frozen term/atom store, the compiled program, and the
// database as of that epoch. A Snapshot is safe for unlimited concurrent
// readers and acquires no mutex on the query-answering hot path.
//
// Evaluation state is built lazily, at most once per snapshot, on private
// overlay stores layered over the frozen base — so evaluation interns
// chase-derived terms without ever mutating shared state. The
// adaptive-deepening ladder is one chained, resumable chase: rung k+1
// extends rung k's chase (chase.Result.Extend) into a fresh overlay over
// rung k's frozen store instead of re-chasing from the database, and its
// grounding appends to rung k's (ground.ExtendFromChase) with local IDs
// kept stable. Each rung's model and store are frozen before publication,
// preserving the immutability contract for concurrent readers of earlier
// rungs. Query-time interning of names the snapshot has never seen goes
// into a small per-call overlay the same way.
//
// A Snapshot remains answerable forever: it keeps serving its epoch's
// consistent view even after the originating System has accepted further
// writes. Grab a fresh snapshot (System.Snapshot) to observe them.
type Snapshot struct {
	store   *atom.Store // frozen
	prog    *program.Program
	db      program.Database
	queries []*program.Query
	opts    core.Options // defaults resolved
	epoch   uint64

	// base is the model at the configured depth (Select, TruthOf, …): the
	// ladder rung of that depth when the schedule has one — always, for a
	// certified program — so each depth is evaluated once per snapshot.
	base  *snapModel
	rungs []*snapModel // adaptive-deepening ladder (Answer), chained

	// Delta-rebase bookkeeping (see newSnapshot): chain counts the
	// epochs since the last fresh build, and the safe*Len fields bound
	// the ID-space prefix shared with every store chain any rung of this
	// snapshot might evaluate on — the oldest rebase ancestor's base
	// store. Compiled queries referencing only IDs below these bounds
	// are valid against every model of the snapshot.
	chain       int
	safeAtomLen int
	safeTermLen int
	safePredLen int

	// metrics points at the owning System's always-on counters; rung
	// builds fold their phase spans into it (EngineMetrics.observeBuild).
	// nil in tests that construct snapshots directly.
	metrics *EngineMetrics

	statsOnce sync.Once
	stats     Stats
}

// snapModel lazily evaluates one model over a private overlay store. The
// mutex + done flag make construction race-free while letting a
// cancelled build abort cleanly: a build interrupted by its caller's
// deadline installs nothing, so the rung stays cold and the next caller
// (with a live token) rebuilds it — a cancelled request can never poison
// a rung for every later reader. After done is set, the model and its
// (frozen) overlay store are read-only and reads take no lock. A
// snapModel with a prev pointer is a ladder rung: it extends prev's
// chase into a fresh overlay over prev's frozen store rather than
// running a private full chase. A snapModel with a reb pointer can
// instead rebase the same-depth rung of the previous epoch's snapshot
// onto the applied delta — preferred when that rung was actually
// materialized, since it reuses all of its work.
type snapModel struct {
	depth int
	prev  *snapModel // previous rung of this snapshot; nil for the first rung and for base
	// reb links the same-depth rung of the previous epoch's snapshot
	// (nil when fresh). It is cleared once this rung materializes — its
	// own model is then the better rebase source for later epochs, and
	// holding the link would keep up to maxSnapshotChain epochs of
	// evaluation state reachable. Atomic because later epochs' rebase
	// walks read it concurrently with the clear.
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
	rebased := false
	var m *core.Model
	if rm := sm.rebase(s, tok, build); rm != nil {
		rebased = true
		m = rm
	} else if sm.prev != nil {
		// Chained rung: continue the previous rung's chase on an
		// overlay over its (frozen) store. IDs carry over, so the
		// extended chase and grounding append to frozen state
		// without touching it.
		pm, err := sm.prev.get(s, tok, tr)
		if err != nil {
			build.MarkCancelled()
			build.End()
			return nil, err
		}
		ost := atom.NewOverlay(pm.Chase.Prog.Store)
		m = core.ExtendModelCancelTraced(pm, s.prog.WithStore(ost), s.opts, sm.depth, tok, build)
		ost.Freeze()
	} else {
		ost := atom.NewOverlay(s.store)
		eng := core.NewEngine(s.prog.WithStore(ost), s.db, s.opts)
		m = eng.EvaluateAtDepthCancelTraced(sm.depth, tok, build)
		ost.Freeze()
	}
	if m.Interrupted {
		build.MarkCancelled()
		build.End()
		return nil, cancelErr(tok)
	}
	endPre := build.Phase("precompute")
	m.Precompute()
	endPre()
	sm.m = m
	sm.reb.Store(nil) // release the previous-epoch chain
	sm.done.Store(true)
	build.End()
	s.metrics.observeBuild(build, rebased)
	return sm.m, nil
}

// rebase carries the nearest already-materialized same-depth rung of an
// earlier epoch across the accumulated database delta: the snapshot's
// database is translated into that rung's ID space (a fresh overlay over
// its frozen store) and core.RebaseModel diffs it against the rung's own
// chase database, so any number of intermediate epochs collapse into one
// rebase. Rungs that were never materialized are skipped — rebasing must
// never force old evaluation work that nobody asked for. (A skipped rung
// that materializes mid-walk may have just cleared its own reb link; the
// walk then simply ends and get falls back to a fresh build.) Returns
// nil when no rebase source exists, leaving get on its fresh-build
// paths; an interrupted rebase surfaces through the returned model's
// Interrupted flag, which get converts to the token's cause.
func (sm *snapModel) rebase(s *Snapshot, tok *cancel.Token, tr *trace.Span) *core.Model {
	for r := sm.reb.Load(); r != nil; r = r.reb.Load() {
		if !r.done.Load() || r.m == nil || sm.depth != r.depth {
			continue
		}
		pm := r.m
		base := pm.Chase.Prog.Store
		if !base.Frozen() {
			return nil
		}
		ost := atom.NewOverlay(base)
		db, ok := s.translateDB(ost)
		if !ok {
			return nil
		}
		m := core.RebaseModelCancelTraced(pm, s.prog.WithStore(ost), s.opts, sm.depth, db, tok, tr)
		ost.Freeze()
		return m
	}
	return nil
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

// translateDB maps the snapshot's database — interned in the current
// master-clone store — into the ID space of an older rung's store chain.
// Both chains share the master store's history up to the oldest rebase
// ancestor, so atoms below the safe prefix carry over verbatim; newer
// atoms (facts added since that ancestor's epoch) re-intern by name into
// the target overlay. Bails (false) on a database fact with non-constant
// arguments, which the rebase path cannot translate.
func (s *Snapshot) translateDB(to *atom.Store) (program.Database, bool) {
	out := make(program.Database, len(s.db))
	for i, a := range s.db {
		if int(a) < s.safeAtomLen {
			out[i] = a
			continue
		}
		args := s.store.Args(a)
		ts := make([]term.ID, len(args))
		for j, tid := range args {
			if int(tid) < s.safeTermLen {
				ts[j] = tid
				continue
			}
			if s.store.Terms.Kind(tid) != term.Const {
				return nil, false
			}
			ts[j] = to.Terms.Const(s.store.Terms.Name(tid))
		}
		p := s.store.PredOf(a)
		if int(p) >= s.safePredLen {
			var err error
			if p, err = to.Pred(s.store.PredName(p), len(args)); err != nil {
				return nil, false
			}
		}
		out[i] = to.Atom(p, ts)
	}
	return out, true
}

// newSnapshot builds a snapshot from an already-frozen store clone and a
// clipped database slice. When prevSnap is non-nil (the published
// snapshot a mutation succeeds), every rung links to its same-depth
// predecessor so evaluation can rebase the predecessor's materialized
// work onto the delta instead of rebuilding; the safe ID-space bounds are
// inherited, since a rebased rung may serve from any ancestor's chain.
// Callers hold the system lock.
func newSnapshot(store *atom.Store, prog *program.Program, db program.Database,
	queries []*program.Query, opts core.Options, epoch uint64, prevSnap *Snapshot,
	metrics *EngineMetrics) *Snapshot {
	opts = opts.WithDefaults()
	s := &Snapshot{
		store:   store,
		prog:    prog.WithStore(store),
		db:      db,
		queries: queries,
		opts:    opts,
		epoch:   epoch,
		metrics: metrics,
	}
	if prevSnap != nil {
		s.chain = prevSnap.chain + 1
		s.safeAtomLen = prevSnap.safeAtomLen
		s.safeTermLen = prevSnap.safeTermLen
		s.safePredLen = prevSnap.safePredLen
	} else {
		s.safeAtomLen = store.Len()
		s.safeTermLen = store.Terms.Len()
		s.safePredLen = store.NumPreds()
	}
	var prev *snapModel
	i := 0
	for d := opts.AdaptiveStart; d <= opts.MaxDepth; d += opts.AdaptiveStep {
		sm := &snapModel{depth: d, prev: prev}
		if prevSnap != nil && i < len(prevSnap.rungs) && prevSnap.rungs[i].depth == d {
			sm.reb.Store(prevSnap.rungs[i])
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
			s.base.reb.Store(prevSnap.base)
		}
	}
	return s
}

// Epoch returns the mutation epoch this snapshot was taken at.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// NumFacts returns the number of database facts in the snapshot.
func (s *Snapshot) NumFacts() int { return len(s.db) }

// compileFor compiles a prepared query against the ID space of model m,
// interning unknown names into a per-call overlay over m's store. When
// compilation interns nothing new AND references only IDs below the
// snapshot's safe shared prefix, the result is valid against every model
// of this snapshot — including delta-rebased rungs living on earlier
// epochs' store chains, where IDs above the prefix mean different things
// — and is cached in the Query for lock-free reuse.
func (s *Snapshot) compileFor(q *Query, m *core.Model) (*program.Query, error) {
	if c := q.compiled.Load(); c != nil && c.store == s.store {
		return c.cq, nil
	}
	ost := atom.NewOverlay(m.Chase.Prog.Store)
	cq, err := program.CompileQuery(q.ast, ost)
	if err != nil {
		return nil, err
	}
	if ost.Pristine() && queryWithin(cq, s.safePredLen, s.safeTermLen) {
		q.compiled.Store(&compiledQuery{store: s.store, cq: cq})
	}
	return cq, nil
}

// queryWithin reports whether every predicate and constant the compiled
// query references lies below the given ID bounds.
func queryWithin(cq *program.Query, maxPred, maxTerm int) bool {
	within := func(ps []atom.Pattern) bool {
		for _, p := range ps {
			if int(p.Pred) >= maxPred {
				return false
			}
			for _, a := range p.Args {
				if !a.IsVar() && int(a.Const) >= maxTerm {
					return false
				}
			}
		}
		return true
	}
	return within(cq.Pos) && within(cq.Neg)
}

// answerLadder runs the adaptive ladder over the snapshot's cached
// rungs: the same deepening/stability algorithm as Engine.Answer, but
// each depth resolves to a model built at most once per snapshot.
// compile resolves the query against each rung's ID space; tr (nil on
// the hot path) records the per-depth phase breakdown.
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
	return s.answerLadder(func(m *core.Model) (*program.Query, error) {
		return s.compileFor(q, m)
	}, nil, nil)
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
	cq, err := s.compileFor(q, m)
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
	t, st, err := s.answerLadder(func(m *core.Model) (*program.Query, error) {
		return s.compileFor(q, m)
	}, tok, nil)
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
// rung schedule — is materialized, recording the builds under tr. Models
// linked to prev rebase its work; after a compaction they build fresh.
// Uncancellable: the caller is a writer that has already committed.
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
	t, st, err := s.answerLadder(func(m *core.Model) (*program.Query, error) {
		return s.compileFor(q, m)
	}, tok, ladder)
	ladder.End()
	return t, st, err
}

// answerCompiled runs the ladder for a query compiled at load time against
// the system's root store (embedded '?' queries). Such queries reference
// only pre-snapshot IDs, valid against every model.
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
	cq, err := s.compileFor(q, m)
	if err != nil {
		return nil, nil, err
	}
	st := m.Chase.Prog.Store
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

// groundAtom parses "pred(c1,…,cn)" against model m's ID space, interning
// unseen names into a per-call overlay. The returned store renders the
// atom and any proof over it.
func (s *Snapshot) groundAtom(m *core.Model, src string) (atom.AtomID, *atom.Store, error) {
	ost := atom.NewOverlay(m.Chase.Prog.Store)
	q, err := program.ParseQuery(src, ost)
	if err != nil {
		return atom.NoAtom, nil, err
	}
	if len(q.Pos) != 1 || len(q.Neg) != 0 || q.NumVars != 0 {
		return atom.NoAtom, nil, fmt.Errorf("wfs: %q is not a single ground atom", src)
	}
	return ost.Instantiate(q.Pos[0], atom.NewSubst(0)), ost, nil
}

// TruthOf returns the truth of a ground atom written in surface syntax,
// e.g. TruthOf("win(a)"), in the configured-depth model.
func (s *Snapshot) TruthOf(atomSrc string) (Truth, error) {
	m, _ := s.base.get(s, nil, nil)
	a, _, err := s.groundAtom(m, atomSrc)
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
	a, ost, err := s.groundAtom(m, atomSrc)
	if err != nil {
		return "", false, err
	}
	m.PrepareExplanations() // idempotent: guarded by a per-model Once
	proof, ok := m.Explain(a)
	if !ok {
		return "", false, nil
	}
	return proof.Render(ost), true, nil
}

// WCheck runs the goal-directed membership check on a ground atom.
func (s *Snapshot) WCheck(atomSrc string) (Truth, *core.WCheckStats, error) {
	m, _ := s.base.get(s, nil, nil)
	a, _, err := s.groundAtom(m, atomSrc)
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
		delta := core.DeltaForSchema(s.store)
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
