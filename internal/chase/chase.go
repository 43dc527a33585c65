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
//     engines. The chase writes each instance once, as a fixed-size
//     record in an append-only, pointer-free arena with atoms numbered
//     densely at first sight; ground.Program is a view of that arena, and
//     a continuation appends to it in place while it holds the arena's
//     tail claim (see arena); and
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
	"sync/atomic"

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

// Instance is one record of the ground program the chase writes: a fired
// rule instance r ∈ ground(P) — an edge label of F+(P) together with its
// negative body (§3, F+(P) relabeling) — or a fact record (Rule < 0)
// written when an atom first reaches depth 0. Records are fixed-size and
// pointer-free; atoms are dense chase indexes (Result.Universe) and the
// bodies live in the shared Result.Body array: Body[Off:Neg] is the
// positive body, guard first, and Body[Neg:End] the negative body.
type Instance struct {
	Head int32
	Rule int32 // index into Prog.Rules; -1 for a fact record
	Off  int32
	Neg  int32
	End  int32
}

// Result is the bounded atom-level chase. Its ground program lives in an
// append-only arena that continuations share (see arena); everything
// else is its own.
type Result struct {
	arena

	Prog *program.Program
	DB   program.Database
	Opts Options

	// Truncated reports that MaxAtoms stopped the chase early.
	Truncated bool
	// Interrupted reports that the cancellation token stopped the chase
	// before the frontier drained: the derived universe is a sound but
	// incomplete prefix, so the result must not be used for answering.
	Interrupted bool

	perAtom
	waiters map[atom.AtomID][]waiter
	queue   []int32 // atoms pending guard expansion

	// Exact summary statistics, kept as atoms are derived and retracted:
	// the number of derived atoms per forest depth and per term depth.
	depthHist []int32
	termHist  []int32

	// claim guards the tail of the arena; gen is this result's place in
	// the chain of in-place continuations under it. base and baseGen
	// name the claim and generation the arena was copied from, when a
	// continuation lost the claim (see SameAtoms). records names the
	// record numbering: a retraction renumbers the records it keeps and
	// takes a fresh one (see Extends).
	claim   *tailClaim
	gen     uint64
	base    *tailClaim
	baseGen uint64
	records uint64

	// Garbage a retraction leaves in the shared arrays: body slots of
	// dead records, and universe entries of atoms that died (an atom
	// derived again stops counting). Once either exceeds a quarter of
	// its array, the retraction compacts (see compact).
	orphanSlots, orphanAtoms int
}

// arena is the ground program of a chase: append-only arrays that a
// continuation (Apply) extends in place instead of copying
// them — but only while it holds the tail claim. The first continuation
// of a result takes the claim; every later one, a sibling of the first,
// copies the arena. So a continuation never writes memory that an
// already-published result, or a sibling, can read: a result reads only
// the prefix its own slice headers cover, and only the claim holder
// writes past it.
type arena struct {
	// Atoms lists the derived universe in first-derivation order.
	Atoms []atom.AtomID
	// Universe numbers every atom the ground program mentions densely,
	// at first sight: Universe[d] is the global ID of chase atom d. It
	// holds the derived atoms and the negative body atoms of fired
	// instances, which need not be derived.
	Universe []atom.AtomID
	// Ground is the ground program: one record per fired rule instance
	// and one fact record per atom that reached depth 0, in the order
	// they were written.
	Ground []Instance
	// Body holds every record's body atoms, as Universe indexes.
	Body []int32
	// Instances lists the positions in Ground of the fired rule
	// instances, in firing order.
	Instances []int32

	index *atomIndex // global atom → Universe index

	// Occurrence lists, newest first: headNext[i] links record i to the
	// previous record with its head, occNext[k] body slot k to the
	// previous slot with its atom, and occRec[k] is slot k's record, or
	// -1 once a retraction killed it. perAtom.firstHead and
	// perAtom.firstOcc head the lists.
	headNext, occNext, occRec []int32
}

// copy returns a private copy of a, with room to grow.
func (a *arena) copy() arena {
	c := arena{
		Atoms: cloneSlack(a.Atoms), Universe: cloneSlack(a.Universe),
		Ground: cloneSlack(a.Ground), Body: cloneSlack(a.Body), Instances: cloneSlack(a.Instances),
		headNext: cloneSlack(a.headNext), occNext: cloneSlack(a.occNext), occRec: cloneSlack(a.occRec),
		index: &atomIndex{},
	}
	for d, g := range c.Universe {
		c.index = c.index.put(g, int32(d))
	}
	return c
}

// perAtom is the bookkeeping per Universe index, rewritten in place by a
// continuation and therefore cloned for each one (a memcpy of
// pointer-free arrays).
type perAtom struct {
	depth     []int32 // minimal forest depth, -1 = not derived
	level     []int32 // derivation level (upper bound), -1 = not derived
	firstHead []int32 // newest record with the atom as head
	firstOcc  []int32 // newest body slot holding the atom
	flags     []uint8 // flagQueued, flagExpanded
}

func (p *perAtom) clone() perAtom {
	return perAtom{cloneSlack(p.depth), cloneSlack(p.level), cloneSlack(p.firstHead), cloneSlack(p.firstOcc), cloneSlack(p.flags)}
}

const (
	flagQueued uint8 = 1 << iota
	flagExpanded
	flagProgFact // a fact of the program: depth 0 whatever the database
	flagDied     // died in a retraction and not derived since
	flagOver     // scratch of a retraction: overdeleted
)

// recordLines numbers record numberings; see Result.records.
var recordLines atomic.Uint64

// tailClaim is the right to append to an arena in place: it holds the
// generation of the result that may hand the tail to its next
// continuation.
type tailClaim struct{ owner atomic.Uint64 }

type waiter struct {
	rule  *program.Rule
	guard int32
}

// newResult returns an empty chase of db under prog, its arrays sized for
// about n atoms, m records and a body arena of b.
func newResult(prog *program.Program, db program.Database, opts Options, n, m, b int) *Result {
	n32 := func() []int32 { return make([]int32, 0, n) }
	return &Result{
		arena: arena{
			Atoms: make([]atom.AtomID, 0, n), Universe: make([]atom.AtomID, 0, n),
			Ground: make([]Instance, 0, m), Body: make([]int32, 0, b), Instances: make([]int32, 0, m),
			headNext: make([]int32, 0, m), occNext: make([]int32, 0, b), occRec: make([]int32, 0, b),
			index: &atomIndex{},
		},
		perAtom: perAtom{n32(), n32(), n32(), n32(), make([]uint8, 0, n)},
		Prog:    prog,
		DB:      db,
		Opts:    opts,
		waiters: make(map[atom.AtomID][]waiter),
		claim:   &tailClaim{},
		records: recordLines.Add(1),
	}
}

// Run chases db under prog up to the option bounds.
func Run(prog *program.Program, db program.Database, opts Options) *Result {
	if opts.MaxDepth <= 0 {
		opts.MaxDepth = 1
	}
	r := newResult(prog, db, opts, len(db), len(db), 0)
	r.seed(db)
	r.run()
	return r
}

// seed derives the database atoms and the program facts (rules with empty
// bodies) at depth 0.
func (r *Result) seed(db program.Database) {
	for _, a := range db {
		r.derive(r.intern(a), 0, 0)
	}
	for _, rule := range r.Prog.Rules {
		if rule.IsFact() && len(rule.Exist) == 0 {
			sub := atom.NewSubst(rule.NumVars)
			d := r.intern(r.Prog.Store.Instantiate(rule.Head, sub))
			r.flags[d] |= flagProgFact
			r.derive(d, 0, 0)
		}
	}
}

// Extend returns a new Result that continues this chase to the deeper
// depth bound newDepth instead of re-chasing from the database: the
// derived universe, fired instances, parked waiters, and the unexpanded
// depth-capped frontier all carry over, and only atoms at depth ≥ the old
// bound are (newly) expanded. It is Apply with no fact changes. r itself
// is not mutated, so models already built over r keep serving concurrent
// readers unchanged. If newDepth does not exceed the current bound, the
// chase already saturated strictly below it (no frontier exists at any
// depth, so the deeper chase is identical), or MaxAtoms truncated it, r
// is returned unchanged.
func (r *Result) Extend(prog *program.Program, newDepth int) *Result {
	nr, _ := r.Apply(prog, r.DB, nil, nil, newDepth, nil)
	return nr
}

// continuation returns a Result that continues r under opts without
// mutating it. The per-atom bookkeeping and the parked waiters are
// cloned; the arena is shared when r's tail claim can be taken, and
// copied otherwise.
func (r *Result) continuation(prog *program.Program, opts Options) *Result {
	waiters := make(map[atom.AtomID][]waiter, len(r.waiters))
	for a, ws := range r.waiters {
		waiters[a] = append([]waiter(nil), ws...)
	}
	nr := &Result{
		arena:       r.arena,
		Prog:        prog,
		DB:          r.DB,
		Opts:        opts,
		Truncated:   r.Truncated,
		perAtom:     r.perAtom.clone(),
		waiters:     waiters,
		queue:       cloneSlack(r.queue),
		depthHist:   cloneSlack(r.depthHist),
		termHist:    cloneSlack(r.termHist),
		claim:       r.claim,
		gen:         r.gen + 1,
		base:        r.base,
		baseGen:     r.baseGen,
		records:     r.records,
		orphanSlots: r.orphanSlots,
		orphanAtoms: r.orphanAtoms,
	}
	if !r.claim.owner.CompareAndSwap(r.gen, r.gen+1) {
		nr.arena = r.arena.copy()
		nr.claim, nr.gen, nr.base, nr.baseGen = &tailClaim{}, 0, r.claim, r.gen
	}
	return nr
}

// SameAtoms reports whether r numbers atoms as prev does, prev's
// Universe a prefix of r's: r is prev, a continuation of it in place or
// in a copy, or a retraction of one that did not compact.
func (r *Result) SameAtoms(prev *Result) bool {
	return r == prev ||
		(r.claim == prev.claim && r.gen >= prev.gen) ||
		(r.base == prev.claim && r.baseGen >= prev.gen)
}

// Extends reports whether r's ground program starts with all of prev's
// records, atoms numbered alike: r is prev, or a continuation of it
// with no retraction between them.
func (r *Result) Extends(prev *Result) bool {
	return r.records == prev.records && r.SameAtoms(prev)
}

// cloneSlack copies xs into a fresh slice with ~25% spare capacity, so a
// chase continuation can append to the clone without immediately
// re-copying the whole prefix on its first growth.
func cloneSlack[T any](xs []T) []T {
	out := make([]T, len(xs), len(xs)+len(xs)/4+64)
	copy(out, xs)
	return out
}

// intern returns the Universe index of global atom g, numbering it on
// first sight.
func (r *Result) intern(g atom.AtomID) int32 {
	if d := r.Local(g); d >= 0 {
		return d
	}
	d := int32(len(r.Universe))
	r.Universe = append(r.Universe, g)
	r.index = r.index.put(g, d)
	r.depth = append(r.depth, -1)
	r.level = append(r.level, -1)
	r.firstHead = append(r.firstHead, -1)
	r.firstOcc = append(r.firstOcc, -1)
	r.flags = append(r.flags, 0)
	return d
}

// Local returns the Universe index of global atom a, or -1 if the chase
// never saw it.
func (r *Result) Local(a atom.AtomID) int32 { return r.index.get(a, len(r.Universe)) }

// Derived reports whether a is in the derived universe A.
func (r *Result) Derived(a atom.AtomID) bool { return r.Depth(a) >= 0 }

// Depth returns the minimal forest depth of a, or -1 if underived.
func (r *Result) Depth(a atom.AtomID) int {
	if d := r.Local(a); d >= 0 {
		return int(r.depth[d])
	}
	return -1
}

// Head returns the global head atom of the record at position rec of
// Ground.
func (r *Result) Head(rec int32) atom.AtomID { return r.Universe[r.Ground[rec].Head] }

// RecordsSince appends to dst the positions of the records at index ≥ from
// that have Universe atom d as their head (body false) or in their body
// (body true, once per occurrence), newest first.
func (r *Result) RecordsSince(d int32, from int, body bool, dst []int32) []int32 {
	if body {
		// Live records' slots come in record order; a dead record's slot
		// (-1) can sit anywhere, so it is skipped.
		for k := r.firstOcc[d]; k >= 0; k = r.occNext[k] {
			if rec := r.occRec[k]; int(rec) >= from {
				dst = append(dst, rec)
			} else if rec >= 0 {
				break
			}
		}
		return dst
	}
	for rec := r.firstHead[d]; rec >= 0 && int(rec) >= from; rec = r.headNext[rec] {
		dst = append(dst, rec)
	}
	return dst
}

// record appends a record whose body was just written to Body[off:], with
// the negative part starting at neg, and links it into the occurrence
// lists.
func (r *Result) record(head, rule int32, off, neg int) {
	rec := int32(len(r.Ground))
	r.Ground = append(r.Ground, Instance{Head: head, Rule: rule, Off: int32(off), Neg: int32(neg), End: int32(len(r.Body))})
	r.headNext = append(r.headNext, r.firstHead[head])
	r.firstHead[head] = rec
	for k := off; k < len(r.Body); k++ {
		b := r.Body[k]
		r.occNext = append(r.occNext, r.firstOcc[b])
		r.occRec = append(r.occRec, rec)
		r.firstOcc[b] = int32(k)
	}
	if rule >= 0 {
		r.Instances = append(r.Instances, rec)
	}
}

// derive records atom d at the given depth and level, enqueueing it for
// guard expansion when it is new or its depth decreased below the cap. An
// atom that reaches depth 0 gets its fact record.
func (r *Result) derive(d int32, depth, level int32) {
	if old := r.depth[d]; old < 0 {
		r.depth[d] = depth
		r.level[d] = level
		g := r.Universe[d]
		r.Atoms = append(r.Atoms, g)
		r.countDepth(depth, 1)
		r.countTerm(g, 1)
		if r.flags[d]&flagDied != 0 {
			r.flags[d] &^= flagDied
			r.orphanAtoms--
		}
		if depth == 0 {
			r.record(d, -1, len(r.Body), len(r.Body))
		}
		if int(depth) < r.Opts.MaxDepth {
			r.enqueue(d)
		}
		// Wake instances waiting on d as a side atom.
		if ws := r.waiters[g]; len(ws) > 0 {
			delete(r.waiters, g)
			for _, w := range ws {
				r.tryApply(w.rule, w.guard)
			}
		}
		return
	} else if depth < old {
		r.countDepth(old, -1)
		r.countDepth(depth, 1)
		r.depth[d] = depth
		if depth == 0 {
			r.record(d, -1, len(r.Body), len(r.Body))
		}
		if int(old) >= r.Opts.MaxDepth && int(depth) < r.Opts.MaxDepth {
			r.enqueue(d)
		}
		// Cascade the decrease to heads derived through d as guard.
		for k := r.firstOcc[d]; k >= 0; k = r.occNext[k] {
			rec := r.occRec[k]
			if rec < 0 || r.Ground[rec].Off != k {
				continue // a dead record's slot, or not the guard
			}
			in := r.Ground[rec]
			if nd := depth + 1; nd < r.depth[in.Head] {
				r.derive(in.Head, nd, r.level[in.Head])
			}
		}
	}
	if level < r.level[d] {
		r.level[d] = level
	}
}

// countDepth adjusts the per-depth census of derived atoms.
func (r *Result) countDepth(depth int32, delta int32) {
	for int(depth) >= len(r.depthHist) {
		r.depthHist = append(r.depthHist, 0)
	}
	r.depthHist[depth] += delta
}

// countTerm adjusts the census of derived atoms by the depth of their
// deepest term.
func (r *Result) countTerm(g atom.AtomID, delta int32) {
	td := r.Prog.Store.TermDepth(g)
	for td >= len(r.termHist) {
		r.termHist = append(r.termHist, 0)
	}
	r.termHist[td] += delta
}

func (r *Result) enqueue(d int32) {
	if r.flags[d]&flagQueued != 0 {
		return
	}
	r.flags[d] |= flagQueued
	r.queue = append(r.queue, d)
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
		r.flags[a] &^= flagQueued
		if r.flags[a]&flagExpanded != 0 {
			continue // defensive: each atom's guard expansion runs once
		}
		r.flags[a] |= flagExpanded
		for _, rule := range r.Prog.RulesGuardedBy(r.Prog.Store.PredOf(r.Universe[a])) {
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
func (r *Result) tryApply(rule *program.Rule, g int32) {
	st := r.Prog.Store
	sub := atom.NewSubst(rule.NumVars)
	var trail []int32
	if !st.Match(rule.GuardAtom(), r.Universe[g], sub, &trail) {
		return
	}
	// All side atoms are ground now; check membership, then write the
	// body straight into the arena.
	off := len(r.Body)
	r.Body = append(r.Body, g)
	maxLevel := r.level[g]
	for i, p := range rule.PosBody {
		if i == rule.Guard {
			continue
		}
		sa := st.Instantiate(p, sub)
		d := r.Local(sa)
		if d < 0 || r.depth[d] < 0 {
			// Park: retry when sa is derived.
			r.Body = r.Body[:off]
			r.waiters[sa] = append(r.waiters[sa], waiter{rule: rule, guard: g})
			return
		}
		r.Body = append(r.Body, d)
		if r.level[d] > maxLevel {
			maxLevel = r.level[d]
		}
	}
	neg := len(r.Body)
	for _, p := range rule.NegBody {
		na := r.intern(st.Instantiate(p, sub))
		r.Body = append(r.Body, na)
	}
	head := r.intern(r.Prog.InstantiateHead(rule, sub, &trail))
	r.record(head, int32(rule.Idx), off, neg)
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
// the chase, for instrumentation.
func (r *Result) DepthProfile() []int {
	if len(r.Atoms) == 0 {
		return nil
	}
	prof := make([]int, r.ComputeStats().MaxDepth+1)
	for d := range prof {
		prof[d] = int(r.depthHist[d])
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

// ComputeStats returns the summary statistics of the chase. They are
// kept exact as atoms are derived, so this costs no scan.
func (r *Result) ComputeStats() Stats {
	maxDepth := len(r.depthHist) - 1
	for maxDepth > 0 && r.depthHist[maxDepth] == 0 {
		maxDepth--
	}
	maxTerm := len(r.termHist) - 1
	for maxTerm > 0 && r.termHist[maxTerm] == 0 {
		maxTerm--
	}
	return Stats{
		Atoms:        len(r.Atoms),
		Instances:    len(r.Instances),
		MaxDepth:     max(maxDepth, 0),
		MaxTermDepth: max(maxTerm, 0),
		Truncated:    r.Truncated,
	}
}

func (s Stats) String() string {
	return fmt.Sprintf("atoms=%d instances=%d maxDepth=%d maxTermDepth=%d truncated=%v",
		s.Atoms, s.Instances, s.MaxDepth, s.MaxTermDepth, s.Truncated)
}
