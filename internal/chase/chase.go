// Package chase implements the guarded chase forest F+(P) of §2.5 for
// P = D ∪ Σf, bounded by a depth cap.
//
// Because every NTGD is guarded, the guard atom of a rule contains all
// universally quantified variables: a ground rule instance is fully
// determined by matching the guard against one derived atom, after which
// all side atoms (positive and negative) are ground and need only
// membership checks. The chase therefore runs per (rule, guard-atom) pair:
// no joins are required, which is the algorithmic heart of guardedness.
//
// The package maintains two views:
//
//   - the atom-level derivation graph (Result): the set of derived atoms A
//     with minimal forest depth and derivation level per atom, plus the
//     deduplicated set of ground rule instances (the edge labels of F+(P)),
//     which is exactly the finite ground normal program handed to the WFS
//     engines; and
//   - an explicit node-level forest (Forest), materialized on demand for
//     inspection and for the wfschase tool, where — as in the paper — the
//     same atom may label many nodes.
//
// Negative body atoms play no role in which children exist (F+(P) is the
// chase of the positive part P+); they are recorded on the instances so
// the WFS engines can evaluate them (Definition 5's negative hypotheses).
package chase

import (
	"fmt"

	"repro/internal/atom"
	"repro/internal/cancel"
	"repro/internal/program"
)

// Options bound the chase.
type Options struct {
	// MaxDepth is the forest-depth cap: atoms at depth ≥ MaxDepth are
	// derived but not expanded (they guard no further rules). Depth 0 is
	// the database.
	MaxDepth int
	// MaxAtoms caps the number of derived atoms as a safety valve; 0
	// means no cap. If hit, Result.Truncated is set.
	MaxAtoms int
	// Cancel, when non-nil, is polled every cancelCheckInterval expansion
	// steps; a tripped token stops the run with Result.Interrupted set.
	// Never serialized (WAL checkpoints persist only the numeric bounds).
	Cancel *cancel.Token `json:"-"`
}

// cancelCheckInterval is how many queue pops the chase runs between
// cancellation polls: frequent enough that a guarded expansion step
// budget of ~1k atoms bounds the response latency to well under a
// millisecond, rare enough that the poll (one atomic load) vanishes
// against the per-pop rule-matching work.
const cancelCheckInterval = 1024

// BudgetError reports that the MaxAtoms safety valve stopped an
// evaluation: the derived universe hit the cap, so deeper or re-derived
// answers cannot be computed under the configured budget. core and the
// root wfs package re-export this type as ErrBudgetExceeded.
type BudgetError struct {
	Atoms int // derived atoms when the cap was hit
	Limit int // the configured MaxAtoms cap
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("chase: atom budget exceeded: %d atoms derived, limit %d", e.Atoms, e.Limit)
}

// DefaultOptions are suitable for the examples and tests.
func DefaultOptions() Options { return Options{MaxDepth: 8, MaxAtoms: 2_000_000} }

// Instance is one ground rule instance r ∈ ground(P): an edge label of
// F+(P) together with its negative body (§3, F+(P) relabeling).
type Instance struct {
	Rule *program.Rule
	Head atom.AtomID
	Pos  []atom.AtomID // guard first
	Neg  []atom.AtomID
}

// Guard returns the ground guard atom of the instance.
func (in *Instance) Guard() atom.AtomID { return in.Pos[0] }

// Result is the bounded atom-level chase.
type Result struct {
	Prog *program.Program
	DB   program.Database
	Opts Options

	// Atoms lists the derived universe in first-derivation order.
	Atoms []atom.AtomID
	// Instances lists deduplicated ground rule instances.
	Instances []Instance
	// Truncated reports that MaxAtoms stopped the chase early.
	Truncated bool
	// Interrupted reports that the cancellation token stopped the chase
	// before the frontier drained: the derived universe is a sound but
	// incomplete prefix, so the result must not be used for answering.
	Interrupted bool

	depth []int32 // per AtomID: minimal forest depth, -1 = not derived
	level []int32 // per AtomID: derivation level (upper bound), -1 = not derived

	// The guarded-instance index is an intrusive linked list over two
	// flat int32 slices (rather than a map of slices) so that Extend can
	// clone the whole structure with two memcpys: firstInst[a] heads
	// atom a's list, nextInst[i] links instance i to the previous
	// instance with the same guard, -1 ends a list.
	firstInst []int32 // per AtomID
	nextInst  []int32 // per instance index

	waiters  map[atom.AtomID][]waiter
	queue    []atom.AtomID // atoms pending guard expansion
	queued   []bool        // per AtomID: currently in the expansion queue
	expanded []bool        // per AtomID: guard expansion already ran

	// replay, when non-nil, switches run/derive from rule matching to
	// re-firing a prior chase's instances (Retract's DRed-style replay).
	replay *replayState

	stats *Stats // cached summary; populated when the run finishes
}

type waiter struct {
	rule  *program.Rule
	guard atom.AtomID
}

// Run chases db under prog up to the option bounds.
func Run(prog *program.Program, db program.Database, opts Options) *Result {
	if opts.MaxDepth <= 0 {
		opts.MaxDepth = 1
	}
	r := &Result{
		Prog:    prog,
		DB:      db,
		Opts:    opts,
		waiters: make(map[atom.AtomID][]waiter),
	}
	for _, a := range db {
		r.derive(a, 0, 0)
	}
	// Program facts (rules with empty bodies) are database atoms too.
	for _, rule := range prog.Rules {
		if rule.IsFact() && len(rule.Exist) == 0 {
			sub := atom.NewSubst(rule.NumVars)
			a := prog.Store.Instantiate(rule.Head, sub)
			r.derive(a, 0, 0)
		}
	}
	r.run()
	r.finish()
	return r
}

// Extend returns a new Result that continues this chase to the deeper
// depth bound newDepth instead of re-chasing from the database: the
// derived universe, fired instances, dedup keys, parked waiters, and the
// unexpanded depth-capped frontier all carry over, and only atoms at
// depth ≥ the old bound are (newly) expanded. r itself is not mutated —
// the mutable bookkeeping is cloned first — so models already built over
// r keep serving concurrent readers unchanged.
//
// prog must be the program r was chased under, or one sharing its
// compiled rules and its store; usually it is r.Prog. If newDepth does not exceed the current
// bound, or the chase already saturated strictly below it (no frontier
// exists at any depth, so the deeper chase is identical), r is returned
// unchanged.
func (r *Result) Extend(prog *program.Program, newDepth int) *Result {
	nr, _ := r.ExtendCancel(prog, newDepth, nil)
	return nr
}

// ExtendCancel is Extend under a cancellation token, and it surfaces the
// MaxAtoms condition as a structured *BudgetError instead of silently
// sharing the permanently-truncated receiver: callers that deepen on an
// answering path need to distinguish "already saturated" (receiver
// returned, nil error) from "cannot deepen under the budget". tok may be
// nil (never cancelled).
func (r *Result) ExtendCancel(prog *program.Program, newDepth int, tok *cancel.Token) (*Result, error) {
	oldDepth := r.Opts.MaxDepth
	if newDepth <= oldDepth {
		return r, nil
	}
	if r.Truncated {
		// MaxAtoms exhaustion is permanent (atoms are never removed), so
		// a deeper continuation can derive nothing.
		return r, &BudgetError{Atoms: len(r.Atoms), Limit: r.Opts.MaxAtoms}
	}
	if len(r.queue) == 0 && r.ComputeStats().MaxDepth < oldDepth {
		return r, nil
	}
	nr := r.cloneForContinuation(prog, Options{MaxDepth: newDepth, MaxAtoms: r.Opts.MaxAtoms, Cancel: tok})
	// The frontier: atoms derived at the old cap were never enqueued for
	// guard expansion. Under the raised cap they are expandable again.
	for _, a := range nr.Atoms {
		if d := int(nr.depth[a]); d >= oldDepth && d < newDepth {
			nr.enqueue(a)
		}
	}
	nr.run()
	nr.finish()
	return nr, nil
}

// cloneForContinuation copies r's mutable bookkeeping into a fresh Result
// so a continuation (deeper bound, grown database) can run without
// mutating the receiver: slices are cloned with slack capacity, the
// parked-waiter map is deep-copied, and the stats cache is dropped.
func (r *Result) cloneForContinuation(prog *program.Program, opts Options) *Result {
	waiters := make(map[atom.AtomID][]waiter, len(r.waiters))
	for a, ws := range r.waiters {
		waiters[a] = append([]waiter(nil), ws...)
	}
	return &Result{
		Prog:      prog,
		DB:        r.DB,
		Opts:      opts,
		Atoms:     cloneSlack(r.Atoms),
		Instances: cloneSlack(r.Instances),
		Truncated: r.Truncated,
		depth:     cloneSlack(r.depth),
		level:     cloneSlack(r.level),
		firstInst: cloneSlack(r.firstInst),
		nextInst:  cloneSlack(r.nextInst),
		waiters:   waiters,
		queue:     cloneSlack(r.queue),
		queued:    cloneSlack(r.queued),
		expanded:  cloneSlack(r.expanded),
	}
}

// cloneSlack copies xs into a fresh slice with ~25% spare capacity, so a
// chase continuation can append to the clone without immediately
// re-copying the whole prefix on its first growth.
func cloneSlack[T any](xs []T) []T {
	out := make([]T, len(xs), len(xs)+len(xs)/4+64)
	copy(out, xs)
	return out
}

func (r *Result) ensure(a atom.AtomID) {
	for int(a) >= len(r.depth) {
		r.depth = append(r.depth, -1)
		r.level = append(r.level, -1)
		r.queued = append(r.queued, false)
		r.expanded = append(r.expanded, false)
		r.firstInst = append(r.firstInst, -1)
	}
}

// Derived reports whether a is in the derived universe A.
func (r *Result) Derived(a atom.AtomID) bool {
	return int(a) < len(r.depth) && r.depth[a] >= 0
}

// Depth returns the minimal forest depth of a, or -1 if underived.
func (r *Result) Depth(a atom.AtomID) int {
	if int(a) >= len(r.depth) {
		return -1
	}
	return int(r.depth[a])
}

// Level returns the derivation level (an upper bound on levelP, exact for
// first derivations) of a, or -1 if underived.
func (r *Result) Level(a atom.AtomID) int {
	if int(a) >= len(r.level) {
		return -1
	}
	return int(r.level[a])
}

// InstancesByGuard returns the indexes into Instances guarded by atom a,
// in firing order. The list is materialized from the intrusive index on
// each call; inspection paths (forest building, explanations) that need
// it repeatedly should hold on to the result.
func (r *Result) InstancesByGuard(a atom.AtomID) []int32 {
	if int(a) >= len(r.firstInst) {
		return nil
	}
	var out []int32
	for ii := r.firstInst[a]; ii >= 0; ii = r.nextInst[ii] {
		out = append(out, ii)
	}
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// derive records atom a at the given depth and level, enqueueing it for
// guard expansion when it is new or its depth decreased below the cap.
func (r *Result) derive(a atom.AtomID, depth, level int32) {
	r.ensure(a)
	if r.depth[a] < 0 {
		r.depth[a] = depth
		r.level[a] = level
		r.Atoms = append(r.Atoms, a)
		if int(depth) < r.Opts.MaxDepth {
			r.enqueue(a)
		}
		// Wake instances waiting on a as a side atom.
		if ws := r.waiters[a]; len(ws) > 0 {
			delete(r.waiters, a)
			for _, w := range ws {
				r.tryApply(w.rule, w.guard)
			}
		}
		if rep := r.replay; rep != nil {
			if cs := rep.parked[a]; len(cs) > 0 {
				delete(rep.parked, a)
				for _, ci := range cs {
					r.tryReplay(ci)
				}
			}
		}
		return
	}
	if depth < r.depth[a] {
		wasExpandable := int(r.depth[a]) < r.Opts.MaxDepth
		r.depth[a] = depth
		if !wasExpandable && int(depth) < r.Opts.MaxDepth {
			r.enqueue(a)
		}
		// Cascade the decrease to heads derived through a as guard.
		for ii := r.firstInst[a]; ii >= 0; ii = r.nextInst[ii] {
			in := &r.Instances[ii]
			if nd := depth + 1; nd < r.depth[in.Head] {
				r.derive(in.Head, nd, r.level[in.Head])
			}
		}
	}
	if level < r.level[a] {
		r.level[a] = level
	}
}

func (r *Result) enqueue(a atom.AtomID) {
	if r.queued[a] {
		return
	}
	r.queued[a] = true
	r.queue = append(r.queue, a)
}

func (r *Result) run() {
	tok := r.Opts.Cancel
	budget := cancelCheckInterval
	for len(r.queue) > 0 {
		if budget--; budget <= 0 {
			budget = cancelCheckInterval
			if tok.Cancelled() {
				r.Interrupted = true
				return
			}
		}
		if r.Opts.MaxAtoms > 0 && len(r.Atoms) >= r.Opts.MaxAtoms {
			r.Truncated = true
			return
		}
		a := r.queue[len(r.queue)-1]
		r.queue = r.queue[:len(r.queue)-1]
		r.queued[a] = false
		if r.expanded[a] {
			continue // defensive: each atom's guard expansion runs once
		}
		r.expanded[a] = true
		if rep := r.replay; rep != nil {
			// Replay mode: re-fire the source chase's instances guarded
			// by a instead of matching rules against the store, walking
			// the intrusive per-guard list in place (order within one
			// guard is immaterial — the fired set is what matters).
			if int(a) < len(rep.src.firstInst) {
				for ci := rep.src.firstInst[a]; ci >= 0; ci = rep.src.nextInst[ci] {
					r.tryReplay(ci)
				}
			}
			continue
		}
		for _, rule := range r.Prog.RulesGuardedBy(r.Prog.Store.PredOf(a)) {
			r.tryApply(rule, a)
		}
	}
}

// tryApply matches rule's guard against guard atom g; if the ground side
// atoms are all derived, the instance fires, otherwise it parks on the
// first missing side atom.
//
// Each (rule, guard) pair fires at most once without an explicit dedup
// set: an atom's guard expansion runs exactly once (the expanded flag,
// preserved across Extend), each tryApply call parks on at most one
// missing side atom, and a wake removes the parked waiter before
// retrying — so for a given pair there is never more than one pending
// path to firing. The instance-dedup test and the Extend-vs-Run
// cross-checks enforce this invariant.
func (r *Result) tryApply(rule *program.Rule, g atom.AtomID) {
	st := r.Prog.Store
	sub := atom.NewSubst(rule.NumVars)
	var trail []int32
	if !st.Match(rule.GuardAtom(), g, sub, &trail) {
		return
	}
	// All side atoms are ground now; intern and check membership.
	pos := make([]atom.AtomID, 0, len(rule.PosBody))
	pos = append(pos, g)
	maxLevel := r.level[g]
	for i, p := range rule.PosBody {
		if i == rule.Guard {
			continue
		}
		sa := st.Instantiate(p, sub)
		r.ensure(sa)
		pos = append(pos, sa)
		if r.depth[sa] < 0 {
			// Park: retry when sa is derived.
			r.waiters[sa] = append(r.waiters[sa], waiter{rule: rule, guard: g})
			return
		}
		if r.level[sa] > maxLevel {
			maxLevel = r.level[sa]
		}
	}
	neg := make([]atom.AtomID, 0, len(rule.NegBody))
	for _, p := range rule.NegBody {
		na := st.Instantiate(p, sub)
		r.ensure(na)
		neg = append(neg, na)
	}
	head := r.Prog.InstantiateHead(rule, sub, &trail)
	r.ensure(head)
	ii := int32(len(r.Instances))
	r.Instances = append(r.Instances, Instance{Rule: rule, Head: head, Pos: pos, Neg: neg})
	r.nextInst = append(r.nextInst, r.firstInst[g])
	r.firstInst[g] = ii
	r.derive(head, r.depth[g]+1, maxLevel+1)
}

// ParkedWaiters reports how many rule applications are parked waiting for
// a side atom to be derived — work the chase matched but could not fire.
// A large number relative to Instances means rule bodies routinely ask
// for atoms the chase never derives.
func (r *Result) ParkedWaiters() int {
	n := 0
	for _, ws := range r.waiters {
		n += len(ws)
	}
	return n
}

// DepthProfile returns the number of derived atoms at each forest depth
// (index = depth, up to the deepest derived atom): the frontier shape of
// the chase, for instrumentation. O(atoms); call it on finished chases
// only when tracing asks for detail.
func (r *Result) DepthProfile() []int {
	var prof []int
	for _, a := range r.Atoms {
		d := int(r.depth[a])
		if d < 0 {
			continue
		}
		for len(prof) <= d {
			prof = append(prof, 0)
		}
		prof[d]++
	}
	return prof
}

// Stats summarizes a chase result.
type Stats struct {
	Atoms        int
	Instances    int
	MaxDepth     int
	MaxTermDepth int
	Truncated    bool
}

// ComputeStats returns the summary statistics of the finished chase. The
// O(atoms) scan runs once — Run and Extend populate the cache when they
// finish, so the engine's per-depth evaluation and every later
// Model.Stats call share one computation.
func (r *Result) ComputeStats() Stats {
	if r.stats == nil {
		r.finish()
	}
	return *r.stats
}

// finish computes and caches the summary statistics of a completed run.
func (r *Result) finish() {
	s := Stats{Atoms: len(r.Atoms), Instances: len(r.Instances), Truncated: r.Truncated}
	for _, a := range r.Atoms {
		if d := r.Depth(a); d > s.MaxDepth {
			s.MaxDepth = d
		}
		if td := r.Prog.Store.TermDepth(a); td > s.MaxTermDepth {
			s.MaxTermDepth = td
		}
	}
	r.stats = &s
}

func (s Stats) String() string {
	return fmt.Sprintf("atoms=%d instances=%d maxDepth=%d maxTermDepth=%d truncated=%v",
		s.Atoms, s.Instances, s.MaxDepth, s.MaxTermDepth, s.Truncated)
}
