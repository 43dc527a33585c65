// Package wfs is the public API of this reproduction of
//
//	Hernich, Kupke, Lukasiewicz, Gottlob:
//	"Well-Founded Semantics for Extended Datalog and Ontological
//	Reasoning", PODS 2013,
//
// providing the standard well-founded semantics (WFS) for guarded normal
// Datalog± under the unique name assumption, with decidable normal Boolean
// conjunctive query (NBCQ) answering.
//
// Quick start:
//
//	sys, err := wfs.Load(`
//	    scientist(john).
//	    scientist(X) -> isAuthorOf(X, Y).
//	    conferencePaper(X) -> article(X).
//	`)
//	snap, err := sys.Snapshot()             // immutable evaluated view
//	q, err := wfs.Prepare("? isAuthorOf(john, X).")
//	ans, err := snap.Answer(q)              // lock-free; share snap freely
//	// ans == wfs.True
//
// See the examples/ directory for complete programs, internal/core for the
// engine, and DESIGN.md for the system inventory.
//
// # Concurrency
//
// The read API is built around immutable snapshots. System.Snapshot
// returns the current *Snapshot: the program and database at one
// mutation epoch. Any number of goroutines may answer prepared queries
// (Prepare) against one snapshot simultaneously — the hot path acquires
// no mutex. A System has one term/atom store, shared by its writer, every
// snapshot and every model: it is append-only, so an ID means the same
// thing for ever, and interning takes one mutex while lookups take none.
// Evaluation state (the model at the configured depth and the
// adaptive-deepening ladder) is built at most once per snapshot and
// interns its derived atoms into that store. Reads intern nothing: a
// query's names resolve by lookup, and a name the store has never seen
// is in no atom.
//
// Writes are deltas. Apply commits a batch of fact additions and
// retractions atomically — all-or-nothing validation, one epoch bump —
// and AddFact, RetractFact, and LoadCSV are single-delta wrappers over
// the same path. A write takes the system lock and commits; then, when
// the published snapshot has any model materialized, the writer builds
// its successor beside it — every model that was warm in the
// predecessor REBASED onto the delta (resumed chase for
// additions, DRed on the derivation forest for retractions, warm-started WFS
// fixpoint over the change's dependency cone — see DESIGN.md
// "Incremental updates") — and only then publishes it. Warm stays warm,
// cold stays cold: a snapshot with nothing materialized is simply
// unpublished, and the next reader builds the new one cold. Readers
// never wait for a writer: until the publish they keep answering,
// lock-free, from the predecessor — stale, still internally consistent
// — and the publish itself is the mutation's linearization point, so a
// caller reads its own write once Apply returns. The System's string
// convenience methods (Answer, Select, TruthOf, …) are implemented as
// "grab current snapshot, run read" and remain safe for concurrent use.
package wfs

import (
	"context"
	"fmt"
	"math/big"
	"sync"
	"sync/atomic"

	"repro/internal/analysis"
	"repro/internal/atom"
	"repro/internal/core"
	"repro/internal/ground"
	"repro/internal/parser"
	"repro/internal/program"
	"repro/internal/term"
	"repro/internal/trace"
)

// Truth is the three-valued truth of the well-founded semantics.
type Truth = ground.Truth

// Truth values.
const (
	False     = ground.False
	Undefined = ground.Undefined
	True      = ground.True
)

// Options re-exports the engine options (chase depth, atom budget,
// solver parallelism, adaptive-deepening and guard-band parameters).
type Options = core.Options

// ErrBudgetExceeded re-exports the structured resource-budget error: an
// answer-shaped evaluation whose chase hit the Options.MaxAtoms safety
// valve returns *ErrBudgetExceeded (carrying the atom count and the
// limit) instead of silently answering over a truncated model. Match it
// with errors.As:
//
//	var be *wfs.ErrBudgetExceeded
//	if errors.As(err, &be) { … be.Atoms, be.Limit … }
//
// Introspection paths (Stats, TrueFacts, CheckConstraints) still serve
// the truncated model — the truncation is visible in ModelStats.
type ErrBudgetExceeded = core.ErrBudgetExceeded

// System bundles a compiled guarded normal Datalog± program, its database,
// and the machinery to evaluate them: the one term/atom store everything
// interns into, and an atomically published Snapshot that reads serve from.
// See the package comment for the concurrency contract.
type System struct {
	store   *atom.Store
	prog    *program.Program
	db      program.Database
	queries []*program.Query

	opts Options

	// analysis is the load-time static report: termination classes,
	// chase-termination certificate, and diagnostics. Immutable after
	// load (the certificate and diagnostics are data-independent, so
	// fact mutations do not invalidate them).
	analysis *analysis.Report

	// mu serializes mutations (AddFact, LoadCSV) and snapshot
	// construction, including a mutation's warm successor snapshot.
	// Snapshot readers take the write side only when no snapshot is
	// published, and the metadata accessors (Epoch, NumFacts, …) take the
	// read side only then.
	mu    sync.RWMutex
	epoch uint64
	snap  atomic.Pointer[Snapshot]

	// metrics accumulates always-on build observability across every
	// epoch's snapshots (see EngineMetrics); read via Metrics.
	metrics EngineMetrics

	// commitHook, when set, observes every validated mutation batch
	// immediately before it commits and may veto it (see CommitHook —
	// the write-ahead-log integration point). Stored in traced form;
	// SetCommitHook wraps untraced hooks.
	commitHook CommitHookTraced
}

// Load parses and compiles a source unit (facts, rules, constraints, EGDs,
// and optional '?' queries) with default options.
func Load(src string) (*System, error) { return LoadWithOptions(src, Options{}) }

// LoadWithOptions is Load with explicit engine options. Option
// combinations that could never answer a query — an adaptive-deepening
// schedule that is empty after defaults resolve, e.g. Options{GuardBand:
// 30} against the default MaxDepth 24 — are rejected here (see
// core.Options.Validate) instead of silently answering False later.
//
// Loading always runs the static-analysis pass (see System.Analysis);
// when it certifies a chase depth bound and opts.NoCertify is unset, the
// engine clamps its adaptive ladder to the certified depth and answers
// exactly (core.Options.CertifiedDepth). Analysis diagnostics — even
// Error-severity ones — do not fail the load; callers that want to
// reject broken programs check sys.Analysis().HasErrors() (wfsd does).
func LoadWithOptions(src string, opts Options) (*System, error) {
	return LoadWithOptionsTraced(src, opts, nil)
}

// LoadWithOptionsTraced is LoadWithOptions recording the load's phases
// — parse, compile (counting the facts) and the static-analysis pass —
// as children of tr. A nil tr is LoadWithOptions.
func LoadWithOptionsTraced(src string, opts Options, tr *trace.Span) (*System, error) {
	unit, err := parse(src, tr)
	if err != nil {
		return nil, err
	}
	sp := tr.Child("compile")
	sp.SetCount("facts", int64(len(unit.Facts)))
	st := atom.NewStore(term.NewStore())
	prog, db, queries, err := program.Compile(unit, st)
	sp.End()
	if err != nil {
		return nil, err
	}
	return newSystem(st, prog, db, queries, opts, 0, tr)
}

// parse parses src under a "parse" child of tr.
func parse(src string, tr *trace.Span) (*parser.Unit, error) {
	defer tr.Phase("parse")()
	return parser.Parse(src)
}

// newSystem is the tail LoadWithOptions and Restore share: it analyzes
// the compiled program and database under an "analyze" child of tr,
// derives the certified depth unless opts.NoCertify, and validates opts.
func newSystem(st *atom.Store, prog *program.Program, db program.Database, queries []*program.Query,
	opts Options, epoch uint64, tr *trace.Span) (*System, error) {
	endAnalyze := tr.Phase("analyze")
	rep := analysis.Analyze(prog, db, queries)
	endAnalyze()
	opts.CertifiedDepth = 0
	if !opts.NoCertify && rep.Certificate != nil {
		opts.CertifiedDepth = rep.Certificate.DepthBound
	}
	// Validate after certification: a certified bound can rescue an
	// otherwise-empty deepening schedule by collapsing it to one rung.
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return &System{store: st, prog: prog, db: db, queries: queries, opts: opts, epoch: epoch, analysis: rep}, nil
}

// Analysis returns the load-time static-analysis report: termination
// classes, the chase-termination certificate (if any), negation cycles,
// and diagnostics. The report is immutable and data-independent — fact
// mutations never invalidate it. Never nil for systems built by Load,
// LoadWithOptions, or Restore.
func (s *System) Analysis() *analysis.Report { return s.analysis }

// Snapshot returns the current immutable evaluated view of the system,
// building it if none is published. The returned snapshot is safe for
// unlimited concurrent readers with no lock on the query hot path; it
// stays answerable (at its epoch) even after later writes.
func (s *System) Snapshot() (*Snapshot, error) { return s.SnapshotTraced(nil) }

// SnapshotTraced is Snapshot recording the snapshot construction and
// publication, when none is published, as a child of tr. A mutation of a warm system publishes its successor itself (see
// invalidateLocked), so this only ever builds a cold snapshot: after
// Load or Restore, or after mutations nobody read between. The
// published-snapshot fast path records nothing; a nil tr is Snapshot.
func (s *System) SnapshotTraced(tr *trace.Span) (*Snapshot, error) {
	if snap := s.snap.Load(); snap != nil {
		return snap, nil
	}
	sp := tr.Child("snapshot-publish")
	defer sp.End()
	s.mu.Lock()
	defer s.mu.Unlock()
	if snap := s.snap.Load(); snap != nil {
		return snap, nil // another reader built it while we waited
	}
	snap := s.newSnapshotLocked(nil)
	s.snap.Store(snap)
	return snap, nil
}

// newSnapshotLocked builds a snapshot of the current epoch over the
// System's store, linked to prev for rebasing (nil builds fresh). Callers
// must hold mu.
func (s *System) newSnapshotLocked(prev *Snapshot) *Snapshot {
	// Clip the database so the snapshot's view can never observe a
	// subsequent append, then share the clipped slice.
	s.db = s.db[:len(s.db):len(s.db)]
	return newSnapshot(s.store, s.prog, s.db, s.queries, s.opts, s.epoch, prev, &s.metrics)
}

// Epoch returns the database epoch: a counter bumped by every mutation
// (AddFact, LoadCSV). Every snapshot carries the epoch it was taken at.
func (s *System) Epoch() uint64 {
	_, epoch := s.FactsEpoch()
	return epoch
}

// NumFacts returns the current number of database facts.
func (s *System) NumFacts() int {
	facts, _ := s.FactsEpoch()
	return facts
}

// FactsEpoch returns the fact count and epoch as one consistent pair:
// reading them via NumFacts and Epoch separately can be torn by a
// concurrent write. The pair is the published snapshot's, so it never
// queues behind a writer building the next one; the system lock is taken
// only when no snapshot is published.
func (s *System) FactsEpoch() (facts int, epoch uint64) {
	if snap := s.snap.Load(); snap != nil {
		return len(snap.db), snap.epoch
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.db), s.epoch
}

// NumQueries returns the number of '?' queries embedded in the loaded
// source.
func (s *System) NumQueries() int { return len(s.queries) }

// AddFact adds the ground fact pred(args...) to the database, creating the
// predicate if needed, as a single-entry delta: one epoch bump, cached
// evaluation state rebased rather than discarded. For batches, build a
// Delta and use Apply.
func (s *System) AddFact(pred string, args ...string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applyLocked(&Delta{adds: []factSpec{{pred: pred, args: args}}})
}

// invalidateLocked replaces the published snapshot once a database
// mutation has committed and bumped the epoch. When that snapshot has
// any model materialized, the writer builds the successor beside it,
// rebases every model that was warm in it under tr, and only then
// publishes it: readers keep answering from the predecessor until the
// Store, never from a cold successor. Otherwise (nothing published, or
// nothing read since) it just unpublishes, so cold AddFact loops build
// nothing per mutation. Callers must hold mu.
func (s *System) invalidateLocked(tr *trace.Span) {
	prev := s.snap.Load()
	if prev == nil || !prev.warm() {
		s.snap.Store(nil)
		return
	}
	sp := tr.Child("snapshot-publish")
	next := s.newSnapshotLocked(prev)
	sp.End()
	next.warmLike(prev, tr)
	s.snap.Store(next)
}

// snapshot is Snapshot for internal read paths; the error is currently
// always nil but kept on the public method for forward compatibility.
func (s *System) snapshot() *Snapshot {
	snap, _ := s.Snapshot()
	return snap
}

// Answer parses an NBCQ (with or without leading '?') and answers it via
// adaptive deepening against the current snapshot, returning the
// three-valued answer. For repeated queries, Prepare once and use
// Snapshot.Answer.
func (s *System) Answer(query string) (Truth, error) {
	q, err := Prepare(query)
	if err != nil {
		return False, err
	}
	return s.snapshot().Answer(q)
}

// AnswerCtx is Answer under a context: evaluation polls ctx
// cooperatively and returns its error (context.DeadlineExceeded or
// context.Canceled) when it fires — see Snapshot.AnswerCtx.
func (s *System) AnswerCtx(ctx context.Context, query string) (Truth, error) {
	q, err := Prepare(query)
	if err != nil {
		return False, err
	}
	return s.snapshot().AnswerCtx(ctx, q)
}

// AnswerWithStats is Answer returning the adaptive-deepening trace.
func (s *System) AnswerWithStats(query string) (Truth, *core.AnswerStats, error) {
	q, err := Prepare(query)
	if err != nil {
		return False, nil, err
	}
	return s.snapshot().AnswerWithStats(q)
}

// TraceAnswer is Answer recording a detailed evaluation trace: the
// returned EvalTrace is the phase tree of everything the query paid for —
// parse, snapshot acquisition, and each ladder rung with its chase /
// reground / condense / solve breakdown (rungs already materialized by
// earlier queries appear as cheap match-only spans). The trace is
// per-call state; tracing one query never slows concurrent untraced
// ones.
func (s *System) TraceAnswer(query string) (Truth, *core.AnswerStats, *trace.EvalTrace, error) {
	root := trace.NewDetailed("query")
	endParse := root.Phase("parse")
	q, err := Prepare(query)
	endParse()
	if err != nil {
		return False, nil, root.Trace(), err
	}
	endSnap := root.Phase("snapshot")
	snap := s.snapshot()
	endSnap()
	t, st, err := snap.answerTraced(q, root)
	return t, st, root.Trace(), err
}

// QueryResult pairs an embedded query with its answer. Err reports a
// ladder evaluation failure (see core.Options.Validate); in that case
// Answer is meaningless rather than a genuine False.
type QueryResult struct {
	Query  string
	Answer Truth
	Err    error
}

// Select returns the certain answers of a non-Boolean query as tuples of
// constant names in the query's variable order (§2.1: answers are tuples
// over ∆, so bindings to labelled nulls are excluded). The first return
// lists the variable names.
func (s *System) Select(query string) ([]string, [][]string, error) {
	q, err := Prepare(query)
	if err != nil {
		return nil, nil, err
	}
	return s.snapshot().Select(context.Background(), q, nil)
}

// AnswerAll answers every query embedded in the loaded source.
func (s *System) AnswerAll() []QueryResult {
	return s.snapshot().AnswerAll()
}

// TruthOf returns the truth of a ground atom written in surface syntax,
// e.g. TruthOf("win(a)").
func (s *System) TruthOf(atomSrc string) (Truth, error) {
	return s.snapshot().TruthOf(atomSrc)
}

// ExplainAtom renders a forward proof (Definition 5) of a ground atom. The
// boolean reports whether the atom is true in the model (only true atoms
// have proofs); the error reports malformed input — the two are distinct,
// so callers can tell "not true" from "not an atom".
func (s *System) ExplainAtom(atomSrc string) (string, bool, error) {
	return s.snapshot().Explain(atomSrc)
}

// WCheck runs the goal-directed membership check on a ground atom.
func (s *System) WCheck(atomSrc string) (Truth, *core.WCheckStats, error) {
	return s.snapshot().WCheck(atomSrc)
}

// TrueFacts renders all true atoms of the model, sorted.
func (s *System) TrueFacts() []string { return s.snapshot().TrueFacts() }

// UndefinedFacts renders all undefined atoms of the model, sorted.
func (s *System) UndefinedFacts() []string { return s.snapshot().UndefinedFacts() }

// CheckConstraints evaluates the program's negative constraints and EGDs
// against the model.
func (s *System) CheckConstraints() []core.Violation {
	return s.snapshot().CheckConstraints()
}

// DeltaBound returns the Proposition 12 constant δ for the loaded schema.
func (s *System) DeltaBound() *big.Int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return core.DeltaForSchema(s.store)
}

// Stratified reports whether the program is stratified, in which case the
// stratified baseline semantics applies and coincides with the WFS. The
// rule set is immutable after Load, so no lock is needed.
func (s *System) Stratified() bool {
	_, ok := s.prog.Stratify()
	return ok
}

// Stats summarizes the evaluated system for reporting layers: database
// size, epoch, schema-level bounds, and the model statistics of
// core.Model.Stats.
type Stats struct {
	Facts int    // database facts
	Epoch uint64 // mutation epoch

	Model core.ModelStats // chase + ground model statistics

	Stratified bool   // program admits a stratification
	DeltaBound string // Proposition 12 δ (decimal, or "≈2^k" when huge)
	DeltaBits  int    // bit length of δ
}

// Stats evaluates (if necessary) and summarizes the current snapshot's
// model. The result is cached on the snapshot, so repeated calls between
// writes are cheap.
func (s *System) Stats() Stats { return s.snapshot().Stats() }

// formatBig renders a big integer exactly when small and as a power-of-two
// magnitude when printing it in full would be unreadable (δ routinely has
// thousands of digits).
func formatBig(v *big.Int) string {
	if v.BitLen() <= 128 {
		return v.String()
	}
	return fmt.Sprintf("≈2^%d", v.BitLen())
}

// NormalizeQuery parses an NBCQ and re-renders it in canonical surface
// form, without touching any store. Two queries that differ only in
// whitespace, the optional leading '?', or the trailing '.' normalize to
// the same string, so callers can compare or group queries by their
// canonical text.
func NormalizeQuery(query string) (string, error) {
	pq, err := parser.ParseQueryString(query)
	if err != nil {
		return "", err
	}
	return parser.FormatQuery(pq), nil
}
