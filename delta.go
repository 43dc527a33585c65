package wfs

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/atom"
	"repro/internal/cancel"
	"repro/internal/ground"
	"repro/internal/program"
	"repro/internal/term"
	"repro/internal/trace"
)

// Delta is a batch of database mutations — fact additions and
// retractions — applied atomically by System.Apply: the whole batch is
// validated up front, commits under a single epoch bump, and either
// every mutation lands or none does. Building a Delta touches no system
// state; a Delta may be applied to any System whose program understands
// its predicates, and applying it twice appends the additions twice
// (the database is a multiset of facts, as with AddFact).
type Delta struct {
	adds     []factSpec
	retracts []factSpec
}

type factSpec struct {
	pred string
	args []string
}

func (f factSpec) String() string {
	if len(f.args) == 0 {
		return f.pred
	}
	return f.pred + "(" + strings.Join(f.args, ",") + ")"
}

// NewDelta returns an empty mutation batch.
func NewDelta() *Delta { return &Delta{} }

// FactRef is the store-independent form of one ground fact: a predicate
// name and constant arguments as plain strings. It is the wire-stable
// currency of the durability layer — commit hooks receive mutation
// batches as FactRefs, DumpState renders the database as FactRefs, and
// Restore rebuilds one from them — so a fact logged by one process can be
// replayed by another with a differently-populated store.
type FactRef struct {
	Pred string   `json:"pred"`
	Args []string `json:"args,omitempty"`
}

// Mutations returns the delta's scheduled additions and retractions as
// store-independent fact references, in scheduling order. The result
// round-trips: feeding it back through NewDelta().Add(...)/Retract(...)
// rebuilds an equivalent delta, which is how write-ahead-log replay
// re-applies a logged mutation batch.
func (d *Delta) Mutations() (adds, retracts []FactRef) {
	return factRefs(d.adds), factRefs(d.retracts)
}

// factRefs converts internal fact specs to their exported form. The
// argument slices are shared, not copied; receivers must treat them as
// read-only.
func factRefs(specs []factSpec) []FactRef {
	if len(specs) == 0 {
		return nil
	}
	out := make([]FactRef, len(specs))
	for i, f := range specs {
		out[i] = FactRef{Pred: f.pred, Args: f.args}
	}
	return out
}

// CommitHook observes a validated mutation batch immediately before it
// commits. It runs under the system's write lock, after the whole batch
// has validated and before any state changes: returning an error rejects
// the mutation with the database untouched, which is exactly the
// log-then-commit ordering a write-ahead log needs (serialize and fsync
// the batch durably, then let the in-memory commit proceed). epoch is the
// epoch the batch will commit at (current epoch + 1). The hook must not
// call back into the System (the lock is held) and must not retain or
// mutate the argument slices beyond the call.
type CommitHook func(epoch uint64, adds, retracts []FactRef) error

// CommitHookTraced is a CommitHook that additionally receives the
// mutating request's trace span (nil when the mutation is untraced), so
// a durability hook can record its own phases — WAL append, fsync —
// under the request's span tree.
type CommitHookTraced func(epoch uint64, adds, retracts []FactRef, tr *trace.Span) error

// SetCommitHook installs h as the system's commit hook (nil removes it).
// Every mutation path — Apply, AddFact, RetractFact, LoadCSV — funnels
// through the hook.
func (s *System) SetCommitHook(h CommitHook) {
	if h == nil {
		s.SetCommitHookTraced(nil)
		return
	}
	s.SetCommitHookTraced(func(epoch uint64, adds, retracts []FactRef, _ *trace.Span) error {
		return h(epoch, adds, retracts)
	})
}

// SetCommitHookTraced installs a trace-aware commit hook (nil removes
// it). Semantics are identical to SetCommitHook.
func (s *System) SetCommitHookTraced(h CommitHookTraced) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.commitHook = h
}

// Add schedules the ground fact pred(args...) for addition, creating the
// predicate on apply if needed. Returns d for chaining.
func (d *Delta) Add(pred string, args ...string) *Delta {
	d.adds = append(d.adds, factSpec{pred: pred, args: args})
	return d
}

// Retract schedules the ground fact pred(args...) for retraction.
// Retraction removes every database occurrence of the fact; applying a
// delta that retracts a fact not currently in the database is an error
// (and, like every validation error, leaves the database untouched).
// Returns d for chaining.
func (d *Delta) Retract(pred string, args ...string) *Delta {
	d.retracts = append(d.retracts, factSpec{pred: pred, args: args})
	return d
}

// Empty reports whether the delta contains no mutations.
func (d *Delta) Empty() bool { return len(d.adds) == 0 && len(d.retracts) == 0 }

// Len returns the number of scheduled mutations.
func (d *Delta) Len() int { return len(d.adds) + len(d.retracts) }

// ParseFact parses a ground fact in surface syntax — "pred(c1,…,cn)" or a
// bare "pred" for a nullary predicate, with an optional trailing '.' —
// into a predicate name and constant arguments, for building Deltas from
// textual input (REPL and CLI retraction commands).
func ParseFact(src string) (pred string, args []string, err error) {
	st := atom.NewStore(term.NewStore())
	q, err := program.ParseQuery(src, st)
	if err != nil {
		return "", nil, err
	}
	if len(q.Pos) != 1 || len(q.Neg) != 0 || q.NumVars != 0 {
		return "", nil, fmt.Errorf("wfs: %q is not a single ground atom", src)
	}
	p := q.Pos[0]
	pred = st.PredName(p.Pred)
	args = make([]string, 0, len(p.Args))
	for _, a := range p.Args {
		if a.IsVar() || st.Terms.Kind(a.Const) != term.Const {
			return "", nil, fmt.Errorf("wfs: %q is not a ground fact over constants", src)
		}
		args = append(args, st.Terms.Name(a.Const))
	}
	return pred, args, nil
}

// Apply validates and applies a mutation batch atomically: all-or-nothing
// validation (unknown or non-database retraction targets, arity
// violations, and add/retract conflicts reject the whole delta with the
// database untouched), one epoch bump for the batch, and an incremental
// rebase of the cached evaluation state — the snapshot ladder carries
// its chase, grounding, and model across the delta instead of
// discarding them. An empty delta is a no-op (no epoch bump).
func (s *System) Apply(d *Delta) error { return s.ApplyCtxTraced(context.Background(), d, nil) }

// ApplyCtxTraced is Apply under a context, recording the mutation's
// phases — validation, the commit hook's durability work, the in-memory
// commit — as children of tr (nil records nothing). Cancellation is
// honoured at two points only: on entry (before the write lock is taken)
// and immediately before the commit hook fires — the durability point.
// Once the hook has acknowledged the batch (the write-ahead log has
// fsynced it), the in-memory commit always completes regardless of ctx:
// a mutation is never durable-but-not-applied, and never
// applied-but-not-durable.
func (s *System) ApplyCtxTraced(ctx context.Context, d *Delta, tr *trace.Span) error {
	if d == nil || d.Empty() {
		return nil
	}
	tok := cancel.For(ctx)
	if tok.Cancelled() {
		return cancelErr(tok)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := s.applyCancelLocked([]*Delta{d}, tok, tr)
	return err
}

// ApplyAll applies ds in order with the effect of one Apply per delta:
// each is validated against the state the deltas before it left, passes
// the commit hook at its own epoch, and bumps the epoch by one (an empty
// or nil delta is a no-op). It stops at the first delta that fails and
// returns how many it applied; those stay committed. The database is
// rebuilt, and a warm snapshot rebased, once for the whole run rather
// than once per delta, so a write-ahead-log tail of n records replays
// in O(database + n) instead of O(n · database).
func (s *System) ApplyAll(ds []*Delta) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applyCancelLocked(ds, nil, nil)
}

// RetractFact removes every database occurrence of the ground fact
// pred(args...), as a single-entry delta. It is an error if the fact is
// not currently in the database.
func (s *System) RetractFact(pred string, args ...string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applyLocked(&Delta{retracts: []factSpec{{pred: pred, args: args}}})
}

// applyLocked applies one untraced, uncancellable batch (AddFact,
// RetractFact, LoadCSV). Callers must hold mu.
func (s *System) applyLocked(d *Delta) error {
	_, err := s.applyCancelLocked([]*Delta{d}, nil, nil)
	return err
}

// applyCancelLocked is the single mutation path: every database write —
// AddFact, RetractFact, LoadCSV, Apply, ApplyAll — funnels through it.
// It stages the batches in order (see stageLocked), stops at the first
// that fails, and then commits what was staged at once: one database
// rebuild, one epoch bump per staged batch, one snapshot replacement.
// It returns how many batches were applied, empty ones included. tok
// (nil = never cancelled) is polled immediately before each commit hook:
// a batch whose client vanished during validation is rejected before it
// costs a durable WAL append, but a batch the hook has acknowledged
// always commits. tr, when non-nil, receives the phase tree under an
// "apply" child span. Callers must hold mu.
func (s *System) applyCancelLocked(batches []*Delta, tok *cancel.Token, tr *trace.Span) (int, error) {
	var adds, retracts int
	for _, d := range batches {
		if d != nil {
			adds += len(d.adds)
			retracts += len(d.retracts)
		}
	}
	if adds+retracts == 0 {
		return len(batches), nil
	}
	ap := tr.Child("apply")
	defer ap.End()
	ap.SetCount("adds", int64(adds))
	ap.SetCount("retracts", int64(retracts))
	w := s.newDBEdit(batches)
	applied, staged := 0, uint64(0)
	var err error
	for i, d := range batches {
		if d != nil && !d.Empty() {
			if err = s.stageLocked(w, d, s.epoch+staged+1, i+1 < len(batches), tok, ap); err != nil {
				break
			}
			staged++
		}
		applied++
	}
	if staged > 0 {
		endCommit := ap.Phase("commit")
		s.db = w.rebuild()
		s.epoch += staged
		endCommit()
		s.invalidateLocked(ap)
	}
	return applied, err
}

// stageLocked validates one batch against the state w holds, passes it
// through the commit hook at epoch, and stages it into w. Validation
// runs retractions first (pure lookups, nothing interned; errors name
// the first bad target in batch order), then add/retract conflicts, then
// the arity of every addition — all before anything interns, so a batch
// that fails leaves the store's schema and w untouched. track keeps the
// multiplicity of the added atoms for a later batch's retractions.
func (s *System) stageLocked(w *dbEdit, d *Delta, epoch uint64, track bool, tok *cancel.Token, ap *trace.Span) error {
	endValidate := ap.Phase("validate")
	defer endValidate() // idempotent; covers the validation error returns
	gone := make([]atom.AtomID, 0, len(d.retracts))
	for _, f := range d.retracts {
		a, err := s.lookupFactLocked(f)
		if err != nil {
			return err
		}
		if w.count[a] == 0 {
			return fmt.Errorf("wfs: retract %s: not a database fact", f)
		}
		gone = append(gone, a)
	}
	// Reject add/retract conflicts at the spec level, before anything
	// interns: additions and retractions resolve constants and
	// predicates identically, so two specs denote the same fact exactly
	// when they render identically.
	if len(d.retracts) > 0 && len(d.adds) > 0 {
		rset := make(map[string]struct{}, len(d.retracts))
		for _, f := range d.retracts {
			rset[f.String()] = struct{}{}
		}
		for _, f := range d.adds {
			if _, clash := rset[f.String()]; clash {
				return fmt.Errorf("wfs: delta both adds and retracts %s", f)
			}
		}
	}
	// Validate additions against the schema BEFORE interning anything
	// schema-bearing: a predicate's arity is fixed by its first interning
	// (atom.Store.Pred), so interning during a batch that later fails
	// validation would permanently poison the predicate at the failed
	// batch's arity. Constants and ground atoms carry no such weight, so
	// they may intern below.
	newPreds := make(map[string]int, len(d.adds))
	for _, f := range d.adds {
		if p, ok := s.store.LookupPred(f.pred); ok {
			if got := s.store.PredArity(p); got != len(f.args) {
				return fmt.Errorf("wfs: add %s: predicate %s used with arity %d, previously %d",
					f, f.pred, len(f.args), got)
			}
		} else if prev, seen := newPreds[f.pred]; seen && prev != len(f.args) {
			return fmt.Errorf("wfs: add %s: predicate %s used with arity %d and %d in one delta",
				f, f.pred, len(f.args), prev)
		} else {
			newPreds[f.pred] = len(f.args)
		}
	}
	endValidate()
	// Last cancellation point: past here the batch heads for the
	// durability hook, and an acked append must always commit.
	if tok.Cancelled() {
		return cancelErr(tok)
	}
	// Durability point: the batch is fully validated, nothing has
	// interned or committed. A hook failure (e.g. the WAL could not
	// fsync) rejects the mutation with the database untouched; a hook
	// success guarantees the batch is durable before it becomes visible.
	if s.commitHook != nil {
		if err := s.commitHook(epoch, factRefs(d.adds), factRefs(d.retracts), ap); err != nil {
			return fmt.Errorf("wfs: commit hook: %w", err)
		}
	}
	added := make([]atom.AtomID, 0, len(d.adds))
	for _, f := range d.adds {
		a, err := s.store.Fact(f.pred, f.args)
		if err != nil {
			return err // unreachable: arities validated above
		}
		added = append(added, a)
	}
	w.stage(gone, added, track)
	return nil
}

// dbEdit is the database as a run of batches leaves it, kept as edits
// against the database the run started from, so staging a batch costs
// O(batch) and only the final rebuild costs O(database). Positions count
// base then added: retracting a at the moment the run's database has n
// entries removes every occurrence at a position < n, so an occurrence
// survives exactly when its position is ≥ killed[a].
type dbEdit struct {
	base   program.Database
	occ    []int               // ascending positions in base of the atoms count covers
	count  map[atom.AtomID]int // live multiplicity of every atom a batch may retract
	added  []atom.AtomID       // staged additions, in order
	killed map[atom.AtomID]int // per retracted atom, the position its occurrences end at
}

// newDBEdit starts an edit of the current database for batches. One scan
// of the database counts the occurrences of every retraction target
// that already resolves: a target that does not cannot be in the
// database, and one that an earlier batch interns has count 0 until that
// batch's additions (tracked in stage) raise it.
func (s *System) newDBEdit(batches []*Delta) *dbEdit {
	w := &dbEdit{base: s.db, count: make(map[atom.AtomID]int)}
	var targets []atom.AtomID
	for _, d := range batches {
		if d == nil {
			continue
		}
		for _, f := range d.retracts {
			if a, err := s.lookupFactLocked(f); err == nil {
				targets = append(targets, a)
			}
		}
	}
	if len(targets) == 0 {
		return w
	}
	top := int32(-1)
	for _, a := range targets {
		top = max(top, int32(a))
	}
	want := ground.NewBits(int(top) + 1)
	for _, a := range targets {
		want.Set(int32(a))
	}
	for i, a := range s.db {
		if int32(a) <= top && want.Get(int32(a)) {
			w.count[a]++
			w.occ = append(w.occ, i)
		}
	}
	return w
}

// stage records one validated batch: every occurrence of the gone atoms
// so far is removed, then added is appended.
func (w *dbEdit) stage(gone, added []atom.AtomID, track bool) {
	if len(gone) > 0 && w.killed == nil {
		w.killed = make(map[atom.AtomID]int, len(gone))
	}
	for _, a := range gone {
		w.count[a] = 0
		w.killed[a] = len(w.base) + len(w.added)
	}
	w.added = append(w.added, added...)
	if track {
		for _, a := range added {
			w.count[a]++
		}
	}
}

// rebuild returns the database w describes: the surviving base entries
// in order, then the surviving additions in order — exactly what
// applying the staged batches one at a time leaves. The result is
// clipped, and built by copy, so no earlier snapshot's view can alias
// its entries and later appends cannot alias it.
func (w *dbEdit) rebuild() program.Database {
	if len(w.killed) == 0 {
		db := append(w.base[:len(w.base):len(w.base)], w.added...)
		return db[:len(db):len(db)]
	}
	db := make(program.Database, 0, len(w.base)+len(w.added))
	from := 0
	for _, i := range w.occ {
		if i < w.killed[w.base[i]] {
			db = append(db, w.base[from:i]...)
			from = i + 1
		}
	}
	db = append(db, w.base[from:]...)
	for j, a := range w.added {
		if len(w.base)+j >= w.killed[a] {
			db = append(db, a)
		}
	}
	return db[:len(db):len(db)]
}

// lookupFactLocked resolves a retraction target against the current
// store: the predicate, its arity, every constant and the interned atom
// must all exist (membership in the database is the caller's check).
// Callers must hold mu.
func (s *System) lookupFactLocked(f factSpec) (atom.AtomID, error) {
	p, ok := s.store.LookupPred(f.pred)
	if !ok {
		return atom.NoAtom, fmt.Errorf("wfs: retract %s: unknown predicate %s", f, f.pred)
	}
	if got := s.store.PredArity(p); got != len(f.args) {
		return atom.NoAtom, fmt.Errorf("wfs: retract %s: predicate %s has arity %d", f, f.pred, got)
	}
	ts := make([]term.ID, len(f.args))
	for i, arg := range f.args {
		t, ok := s.store.Terms.LookupConst(arg)
		if !ok {
			return atom.NoAtom, fmt.Errorf("wfs: retract %s: not a database fact", f)
		}
		ts[i] = t
	}
	a, ok := s.store.Lookup(p, ts)
	if !ok {
		return atom.NoAtom, fmt.Errorf("wfs: retract %s: not a database fact", f)
	}
	return a, nil
}
