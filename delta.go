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
	return s.applyCancelLocked(d.adds, d.retracts, tok, tr)
}

// RetractFact removes every database occurrence of the ground fact
// pred(args...), as a single-entry delta. It is an error if the fact is
// not currently in the database.
func (s *System) RetractFact(pred string, args ...string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applyLocked(nil, []factSpec{{pred: pred, args: args}}, nil)
}

// applyLocked is the single mutation path: every database write —
// AddFact, RetractFact, LoadCSV, Apply — funnels through it. Callers
// must hold mu. tr, when non-nil, receives the mutation's phase tree
// under an "apply" child span.
func (s *System) applyLocked(adds, retracts []factSpec, tr *trace.Span) error {
	return s.applyCancelLocked(adds, retracts, nil, tr)
}

// applyCancelLocked is applyLocked under a cancellation token (nil =
// never cancelled), polled once immediately before the commit hook: a
// batch whose client vanished during validation is rejected before it
// costs a durable WAL append, but a batch the hook has acknowledged
// always commits.
func (s *System) applyCancelLocked(adds, retracts []factSpec, tok *cancel.Token, tr *trace.Span) error {
	if len(adds) == 0 && len(retracts) == 0 {
		return nil
	}
	ap := tr.Child("apply")
	defer ap.End()
	ap.SetCount("adds", int64(len(adds)))
	ap.SetCount("retracts", int64(len(retracts)))
	endValidate := ap.Phase("validate")
	defer endValidate() // idempotent; covers the validation error returns
	// Validate retractions first: pure lookups, nothing interned. The
	// targets resolve in order up to the first that does not; then one
	// scan of the database, a compare and a bit test per fact, finds where
	// they sit. Errors report the first bad target in batch order.
	var gone []int // positions in s.db of the retracted facts
	if len(retracts) > 0 {
		var resolveErr error
		removed := make([]atom.AtomID, 0, len(retracts))
		for _, f := range retracts {
			a, err := s.lookupFactLocked(f)
			if err != nil {
				resolveErr = err
				break
			}
			removed = append(removed, a)
		}
		top := int32(-1)
		for _, a := range removed {
			top = max(top, int32(a))
		}
		want, found := ground.NewBits(int(top)+1), ground.NewBits(int(top)+1)
		for _, a := range removed {
			want.Set(int32(a))
		}
		for i, a := range s.db {
			if int32(a) <= top && want.Get(int32(a)) {
				found.Set(int32(a))
				gone = append(gone, i)
			}
		}
		for j, a := range removed {
			if !found.Get(int32(a)) {
				return fmt.Errorf("wfs: retract %s: not a database fact", retracts[j])
			}
		}
		if resolveErr != nil {
			return resolveErr
		}
	}
	// Reject add/retract conflicts at the spec level, before anything
	// interns: additions and retractions resolve constants and
	// predicates identically, so two specs denote the same fact exactly
	// when they render identically.
	if len(retracts) > 0 && len(adds) > 0 {
		rset := make(map[string]struct{}, len(retracts))
		for _, f := range retracts {
			rset[f.String()] = struct{}{}
		}
		for _, f := range adds {
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
	newPreds := make(map[string]int, len(adds))
	for _, f := range adds {
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
		if err := s.commitHook(s.epoch+1, factRefs(adds), factRefs(retracts), ap); err != nil {
			return fmt.Errorf("wfs: commit hook: %w", err)
		}
	}
	endCommit := ap.Phase("commit")
	defer endCommit()
	added := make([]atom.AtomID, 0, len(adds))
	for _, f := range adds {
		a, err := s.store.Fact(f.pred, f.args)
		if err != nil {
			return err // unreachable: arities validated above
		}
		added = append(added, a)
	}
	// Commit.
	newDB := s.db
	if len(gone) > 0 {
		newDB = make(program.Database, 0, len(s.db)-len(gone))
		from := 0
		for _, i := range gone {
			newDB = append(newDB, s.db[from:i]...)
			from = i + 1
		}
		newDB = append(newDB, s.db[from:]...)
	}
	// Clip before appending so no earlier snapshot's view can alias the
	// new entries, then clip the result so later appends cannot either.
	newDB = append(newDB[:len(newDB):len(newDB)], added...)
	s.db = newDB[:len(newDB):len(newDB)]
	endCommit()
	s.invalidateLocked(ap)
	return nil
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
