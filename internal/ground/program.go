// Package ground implements finite ground normal logic programs (§2.2) and
// the well-founded semantics machinery on them:
//
//   - the van Gelder alternating fixpoint (Γ², the workhorse);
//   - the literal unfounded-set operator iteration WP = TP ∪ ¬.UP (§2.6);
//   - the forward-proof operator ŴP of Definition 7 / Theorem 8;
//   - the Brass–Dix program remainder (residual program);
//   - stratified (perfect-model) evaluation, the baseline semantics of [1];
//   - a brute-force stable-model enumerator used as a test oracle.
//
// The alternating fixpoint is the one production algorithm (run through
// SolveModular); the other three WFS operators are independent reference
// implementations that must agree with it (Theorem 8 and the classic
// equivalences). Only tests call them: the suite enforces the agreement
// on the paper's examples, on randomized programs, and on the groundings
// of production models.
//
// Atoms are dense local indexes; the engine layer maps them to global
// atom.AtomIDs from the chase universe. An atom with no rules (in
// particular a negative body atom never derived by the bounded chase,
// i.e. an atom with no forward proof) is simply false in every semantics
// here, which is exactly the paper's treatment of atoms outside F+(P).
package ground

import (
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/atom"
	"repro/internal/chase"
)

// Truth is a three-valued truth value.
type Truth int8

const (
	// False: the atom's negation is in the well-founded model.
	False Truth = iota
	// Undefined: neither the atom nor its negation is derivable.
	Undefined
	// True: the atom is in the well-founded model.
	True
)

func (t Truth) String() string {
	switch t {
	case False:
		return "false"
	case Undefined:
		return "undefined"
	case True:
		return "true"
	default:
		return fmt.Sprintf("Truth(%d)", int8(t))
	}
}

// Rule is a ground normal rule over local atom indexes. Facts are rules
// with empty bodies.
type Rule struct {
	Head int32
	Pos  []int32
	Neg  []int32
}

// Program is a finite ground normal logic program.
type Program struct {
	// Atoms maps local indexes to global atom IDs; nil for purely local
	// (test-constructed) programs.
	Atoms []atom.AtomID
	Rules []Rule

	// localIdx maps global atom IDs (dense per store) to local indexes,
	// -1 for atoms outside the universe; nil for purely local programs.
	localIdx    []int32
	rulesByHead [][]int32
	posOcc      [][]int32 // per atom: rules with a positive occurrence (with multiplicity)
	negOcc      [][]int32 // per atom: rules with a negative occurrence (with multiplicity)

	// chaseAtoms/chaseInsts record how much of the originating chase
	// Result this program consumed, so ExtendFromChase can reground only
	// the appended suffix of a deeper chase.
	chaseAtoms int
	chaseInsts int

	// cond/condLight cache the dependency-graph condensation (Condense):
	// the modular solver and the incremental warm-start both consume it,
	// and a program shared across snapshot rungs may be condensed from
	// several goroutines. Publication is an atomic pointer rather than a
	// Once so the closure path can observe an already-built full
	// condensation without forcing one; racing builders waste a little
	// work and agree on the survivor.
	cond      atomic.Pointer[Condensation]
	condLight atomic.Pointer[Condensation]
}

// Condensation returns (building on first use) the full condensation of
// the program's atom dependency graph. Safe for concurrent callers; the
// program must not gain rules afterwards (the extension paths build new
// Programs, so this holds by construction).
func (p *Program) Condensation() *Condensation {
	if c := p.cond.Load(); c != nil {
		return c
	}
	c := condense(p, true)
	if !p.cond.CompareAndSwap(nil, c) {
		c = p.cond.Load()
	}
	return c
}

// closureCondensation returns a condensation sufficient for the affected
// cone closure (Comp, component sizes, dependent edges): the full one
// when already built, otherwise a cheaper closure-only build (see
// condense) — the per-delta warm start pays for exactly what it reads.
func (p *Program) closureCondensation() *Condensation {
	if c := p.cond.Load(); c != nil {
		return c
	}
	if c := p.condLight.Load(); c != nil {
		return c
	}
	c := condense(p, false)
	if !p.condLight.CompareAndSwap(nil, c) {
		c = p.condLight.Load()
	}
	return c
}

// NumAtoms returns the universe size.
func (p *Program) NumAtoms() int { return len(p.rulesByHead) }

// RulesFor returns the indexes of rules whose head is atom a.
func (p *Program) RulesFor(a int32) []int32 { return p.rulesByHead[a] }

// New builds a program over n atoms from rules. Rule atom indexes must be
// in [0,n).
func New(n int, rules []Rule) *Program {
	p := &Program{Rules: rules}
	p.index(n)
	return p
}

func (p *Program) index(n int) {
	// Count first, then carve the per-atom sublists out of one flat
	// backing array each: building these indexes is the hot path of
	// (re)grounding — a delta retraction rebuilds them wholesale — and
	// per-atom append-grown slices spend more time in the allocator than
	// in indexing.
	headCnt := make([]int32, n)
	posCnt := make([]int32, n)
	negCnt := make([]int32, n)
	nPos, nNeg := 0, 0
	for ri := range p.Rules {
		r := &p.Rules[ri]
		headCnt[r.Head]++
		for _, b := range r.Pos {
			posCnt[b]++
		}
		nPos += len(r.Pos)
		for _, b := range r.Neg {
			negCnt[b]++
		}
		nNeg += len(r.Neg)
	}
	p.rulesByHead = flatIndex(headCnt, len(p.Rules))
	p.posOcc = flatIndex(posCnt, nPos)
	p.negOcc = flatIndex(negCnt, nNeg)
	for ri := range p.Rules {
		r := &p.Rules[ri]
		p.rulesByHead[r.Head] = append(p.rulesByHead[r.Head], int32(ri))
		for _, b := range r.Pos {
			p.posOcc[b] = append(p.posOcc[b], int32(ri))
		}
		for _, b := range r.Neg {
			p.negOcc[b] = append(p.negOcc[b], int32(ri))
		}
	}
}

// flatIndex returns per-atom sublists sharing one exactly-sized backing
// array: each sublist has length 0 and capacity counts[a], so the fill
// loop's appends land in the arena without allocating, and the filled
// sublists end at len == cap — a later copy-on-append extension
// (extendIndex) can never scribble on a neighbour.
func flatIndex(counts []int32, total int) [][]int32 {
	arena := make([]int32, total)
	out := make([][]int32, len(counts))
	off := 0
	for a, c := range counts {
		out[a] = arena[off : off : off+int(c)]
		off += int(c)
	}
	return out
}

// FromChase converts a bounded chase result into a finite ground normal
// program: the derived universe plus every (necessarily ground) negative
// body atom of an instance, with one rule per instance and one fact per
// depth-0 atom.
func FromChase(res *chase.Result) *Program {
	p := &Program{}
	p.ingest(res)
	p.index(len(p.Atoms))
	return p
}

// ExtendFromChase converts res — a chase.Extend continuation of the
// result prev was built from — into a ground program by regrounding only
// the appended suffix: every atom of prev keeps its local index, and new
// atoms, facts, and rule instances are appended. prev is not mutated (its
// index slices are copied on first append), so a model computed over prev
// keeps serving concurrent readers. Passing a prev that did not come from
// FromChase/ExtendFromChase (or a res that is not an extension of it)
// falls back to a full FromChase.
func ExtendFromChase(prev *Program, res *chase.Result) *Program {
	if prev == nil || prev.localIdx == nil ||
		prev.chaseAtoms > len(res.Atoms) || prev.chaseInsts > len(res.Instances) {
		return FromChase(res)
	}
	newInsts := len(res.Instances) - prev.chaseInsts
	// Clone localIdx directly at the extended store's length so ingest
	// does not immediately regrow (and re-copy) it.
	localIdx := make([]int32, max(res.Prog.Store.Len(), len(prev.localIdx)))
	n := copy(localIdx, prev.localIdx)
	for i := n; i < len(localIdx); i++ {
		localIdx[i] = -1
	}
	p := &Program{
		Atoms:      cloneSlack(prev.Atoms, newInsts),
		Rules:      cloneSlack(prev.Rules, newInsts),
		localIdx:   localIdx,
		chaseAtoms: prev.chaseAtoms,
		chaseInsts: prev.chaseInsts,
	}
	firstNewRule := len(p.Rules)
	p.ingest(res)
	p.extendIndex(prev, firstNewRule)
	return p
}

// AppendFacts returns a program extending p with one fact rule per listed
// global atom, leaving p untouched (shared index slices are copied on
// append, as in ExtendFromChase). The delta layer uses it when a database
// addition re-asserts an atom the chase had already derived through rules:
// the atom sits before ExtendFromChase's regrounding cursor, so the
// suffix-only regrounding cannot see its new depth-0 status.
func (p *Program) AppendFacts(facts []atom.AtomID) *Program {
	if len(facts) == 0 {
		return p
	}
	np := &Program{
		Atoms:      cloneSlack(p.Atoms, len(facts)),
		Rules:      cloneSlack(p.Rules, len(facts)),
		localIdx:   append([]int32(nil), p.localIdx...),
		chaseAtoms: p.chaseAtoms,
		chaseInsts: p.chaseInsts,
	}
	firstNew := len(np.Rules)
	for _, g := range facts {
		for int(g) >= len(np.localIdx) {
			np.localIdx = append(np.localIdx, -1)
		}
		i := np.localIdx[g]
		if i < 0 {
			i = int32(len(np.Atoms))
			np.localIdx[g] = i
			np.Atoms = append(np.Atoms, g)
		}
		np.Rules = append(np.Rules, Rule{Head: i})
	}
	np.extendIndex(p, firstNew)
	return np
}

// cloneSlack copies xs into a fresh slice with spare capacity for the
// expected number of appends, so extension never re-copies the prefix.
func cloneSlack[T any](xs []T, slack int) []T {
	out := make([]T, len(xs), len(xs)+slack+16)
	copy(out, xs)
	return out
}

// ingest appends the not-yet-consumed suffix of res (per the
// chaseAtoms/chaseInsts cursors): fact rules for new depth-0 atoms, then
// one rule per new instance, interning unseen global atoms as fresh local
// indexes.
func (p *Program) ingest(res *chase.Result) {
	if storeLen := res.Prog.Store.Len(); storeLen > len(p.localIdx) {
		nl := make([]int32, storeLen)
		n := copy(nl, p.localIdx)
		for i := n; i < storeLen; i++ {
			nl[i] = -1
		}
		p.localIdx = nl
	}
	idx := func(a atom.AtomID) int32 {
		if i := p.localIdx[a]; i >= 0 {
			return i
		}
		i := int32(len(p.Atoms))
		p.localIdx[a] = i
		p.Atoms = append(p.Atoms, a)
		return i
	}
	// Size everything up front: one backing array per body polarity and
	// exactly-grown Atoms/Rules, instead of per-rule allocations — the
	// wholesale reground after a retraction runs through here.
	facts, nPos, nNeg := 0, 0, 0
	for _, a := range res.Atoms[p.chaseAtoms:] {
		if res.Depth(a) == 0 {
			facts++
		}
	}
	for i := p.chaseInsts; i < len(res.Instances); i++ {
		in := &res.Instances[i]
		nPos += len(in.Pos)
		nNeg += len(in.Neg)
	}
	newInsts := len(res.Instances) - p.chaseInsts
	if want := len(res.Atoms) - p.chaseAtoms; cap(p.Atoms)-len(p.Atoms) < want {
		p.Atoms = cloneSlack(p.Atoms, want)
	}
	if want := facts + newInsts; cap(p.Rules)-len(p.Rules) < want {
		p.Rules = cloneSlack(p.Rules, want)
	}
	posArena := make([]int32, 0, nPos)
	negArena := make([]int32, 0, nNeg)
	for _, a := range res.Atoms[p.chaseAtoms:] {
		if res.Depth(a) == 0 {
			p.Rules = append(p.Rules, Rule{Head: idx(a)})
		}
	}
	for i := p.chaseInsts; i < len(res.Instances); i++ {
		in := &res.Instances[i]
		r := Rule{Head: idx(in.Head)}
		mark := len(posArena)
		for _, b := range in.Pos {
			posArena = append(posArena, idx(b))
		}
		r.Pos = posArena[mark:len(posArena):len(posArena)]
		mark = len(negArena)
		for _, b := range in.Neg {
			negArena = append(negArena, idx(b))
		}
		r.Neg = negArena[mark:len(negArena):len(negArena)]
		p.Rules = append(p.Rules, r)
	}
	p.chaseAtoms = len(res.Atoms)
	p.chaseInsts = len(res.Instances)
}

// extendIndex extends prev's rule indexes with the rules appended from
// firstNewRule on. Inner slices are shared with prev until a new rule
// touches them, then copied — never appended to in place, since prev's
// slices may have spare capacity backing prev's own reads.
func (p *Program) extendIndex(prev *Program, firstNewRule int) {
	n := len(p.Atoms)
	p.rulesByHead = make([][]int32, n)
	copy(p.rulesByHead, prev.rulesByHead)
	p.posOcc = make([][]int32, n)
	copy(p.posOcc, prev.posOcc)
	p.negOcc = make([][]int32, n)
	copy(p.negOcc, prev.negOcc)
	ownedHead := make([]bool, n)
	ownedPos := make([]bool, n)
	ownedNeg := make([]bool, n)
	for ri := firstNewRule; ri < len(p.Rules); ri++ {
		r := &p.Rules[ri]
		if !ownedHead[r.Head] {
			p.rulesByHead[r.Head] = append([]int32(nil), p.rulesByHead[r.Head]...)
			ownedHead[r.Head] = true
		}
		p.rulesByHead[r.Head] = append(p.rulesByHead[r.Head], int32(ri))
		for _, b := range r.Pos {
			if !ownedPos[b] {
				p.posOcc[b] = append([]int32(nil), p.posOcc[b]...)
				ownedPos[b] = true
			}
			p.posOcc[b] = append(p.posOcc[b], int32(ri))
		}
		for _, b := range r.Neg {
			if !ownedNeg[b] {
				p.negOcc[b] = append([]int32(nil), p.negOcc[b]...)
				ownedNeg[b] = true
			}
			p.negOcc[b] = append(p.negOcc[b], int32(ri))
		}
	}
}

// Local returns the local index of global atom a, or -1 if a is not in the
// program's universe (atom.NoAtom included).
func (p *Program) Local(a atom.AtomID) int32 {
	if a >= 0 && int(a) < len(p.localIdx) {
		return p.localIdx[a]
	}
	return -1
}

// Model is a three-valued interpretation of a program: one Truth per local
// atom. By construction a Model is consistent (§2.2): it cannot contain an
// atom and its negation.
type Model struct {
	Prog  *Program
	Truth []Truth
	// Rounds is the number of outer operator applications the computing
	// algorithm needed (the finite counterpart of the paper's possibly
	// transfinite iteration count, Example 9). A modular solve
	// (SolveModular) reports the sum over components — the sequential
	// composition of the per-component iterations along the topological
	// order, the modular analog of the paper's ordinal stages — so the
	// count still grows with the depth of the (truncated) program.
	Rounds int

	// Modular-evaluation statistics, set by SolveModular (zero when a
	// global algorithm ran directly on the program).
	SCCs       int // dependency-graph components
	LargestSCC int // atoms in the largest component
	HardSCCs   int // components with a negation cycle (full WFS fixpoint)
	Workers    int // peak worker goroutines used by the solve

	// Interrupted reports that a cancellation token stopped the solve
	// before the fixpoint: Truth is a partial assignment and the model
	// must not be used for answering (callers convert it to an error).
	Interrupted bool
}

// TruthOf returns the truth of local atom a.
func (m *Model) TruthOf(a int32) Truth { return m.Truth[a] }

// TruthOfGlobal returns the truth of a global atom: False when outside the
// universe (no forward proof within the bound).
func (m *Model) TruthOfGlobal(a atom.AtomID) Truth {
	if i := m.Prog.Local(a); i >= 0 {
		return m.Truth[i]
	}
	return False
}

// CountTrue returns the number of true atoms.
func (m *Model) CountTrue() int { return m.count(True) }

// CountUndefined returns the number of undefined atoms.
func (m *Model) CountUndefined() int { return m.count(Undefined) }

func (m *Model) count(t Truth) int {
	n := 0
	for _, v := range m.Truth {
		if v == t {
			n++
		}
	}
	return n
}

// Equal reports whether two models over the same program agree everywhere.
func (m *Model) Equal(o *Model) bool {
	if len(m.Truth) != len(o.Truth) {
		return false
	}
	for i := range m.Truth {
		if m.Truth[i] != o.Truth[i] {
			return false
		}
	}
	return true
}

// String renders the model as {a, b, ¬c, u?} style sets for debugging.
func (m *Model) String() string {
	var tr, fa, un []string
	for i, t := range m.Truth {
		name := fmt.Sprintf("a%d", i)
		switch t {
		case True:
			tr = append(tr, name)
		case False:
			fa = append(fa, name)
		default:
			un = append(un, name)
		}
	}
	return fmt.Sprintf("true=%s false=%s undef=%s",
		strings.Join(tr, ","), strings.Join(fa, ","), strings.Join(un, ","))
}
