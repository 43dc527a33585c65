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
// Atoms are dense local indexes. A program grounded by the chase is a
// view of the chase's instance arena (FromChase, ExtendFromChase,
// RetractFromChase): its
// local indexes are the chase's dense atom numbering, its rules the
// chase's records, and Atoms maps them back to global atom.AtomIDs. An atom with no rules (in
// particular a negative body atom never derived by the bounded chase,
// i.e. an atom with no forward proof) is simply false in every semantics
// here, which is exactly the paper's treatment of atoms outside F+(P).
package ground

import (
	"fmt"
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

// Rule is a ground normal rule over local atom indexes, the input form of
// New. Facts are rules with empty bodies.
type Rule struct {
	Head int32
	Pos  []int32
	Neg  []int32
}

// Program is a finite ground normal logic program: a view of a chase's
// instance arena (FromChase, ExtendFromChase) or of rules built directly
// (New). Rules are fixed-size records whose bodies live in one shared
// array (Pos, Neg); the view is a record-prefix length plus occurrence
// lists. A view never writes the arena, and a view's lists cover a prefix
// of its records: the records after it are found through the chase's
// occurrence links, and after a retraction the lists are read through
// the retraction's renumbering, until enough rules are missed or dead to
// rebuild the lists.
type Program struct {
	// Atoms maps local indexes to global atom IDs — the chase's dense
	// Universe numbering; nil for purely local (New-built) programs.
	Atoms []atom.AtomID
	Rules []chase.Instance

	body []int32
	n    int           // atoms
	res  *chase.Result // the chase viewed; nil for New-built programs

	// occ holds occurrence lists over the rules of an earlier view of the
	// same chase. With remap nil they are this view's Rules[:occ.rules];
	// otherwise remap renumbers them into this view, a negative entry
	// for a rule a retraction killed. Either way they cover exactly the
	// rules before from, and the rules from it on are found through the
	// chase's links. Descendant views share occ and remap until they
	// rebuild. full caches an index over all rules, built when a
	// whole-program solve needs one and occ falls short.
	occ   *occIndex
	remap []int32
	from  int
	full  atomic.Pointer[occIndex]

	// cond caches the dependency-graph condensation (Condensation): a
	// program shared across snapshot rungs may be condensed from several
	// goroutines; racing builders waste a little work and agree on the
	// survivor.
	cond atomic.Pointer[Condensation]
}

// occIndex holds the occurrence lists of a prefix of a program's rules in
// CSR form: per atom, the rules with it as head, in the positive body,
// and in the negative body (with multiplicity).
type occIndex struct {
	rules                      int
	headOff, posOff, negOff    []int32
	headList, posList, negList []int32
}

func (x *occIndex) heads(a int32) []int32 { return csr(x.headOff, x.headList, a) }
func (x *occIndex) pos(a int32) []int32   { return csr(x.posOff, x.posList, a) }
func (x *occIndex) neg(a int32) []int32   { return csr(x.negOff, x.negList, a) }

func csr(off, list []int32, a int32) []int32 {
	if int(a)+1 >= len(off) {
		return nil // an atom newer than the index
	}
	return list[off[a]:off[a+1]]
}

// buildOcc indexes all of p's rules: count, prefix-sum, scatter, into
// pointer-free arrays.
func buildOcc(p *Program) *occIndex {
	n := p.n
	x := &occIndex{rules: len(p.Rules)}
	cnt := make([]int32, 3*n)
	headCnt, posCnt, negCnt := cnt[:n], cnt[n:2*n], cnt[2*n:]
	for ri := range p.Rules {
		r := &p.Rules[ri]
		headCnt[r.Head]++
		for _, b := range p.body[r.Off:r.Neg] {
			posCnt[b]++
		}
		for _, b := range p.body[r.Neg:r.End] {
			negCnt[b]++
		}
	}
	off := make([]int32, 3*(n+1))
	x.headOff, x.posOff, x.negOff = off[:n+1], off[n+1:2*(n+1)], off[2*(n+1):]
	x.headList = make([]int32, prefixCSR(headCnt, x.headOff))
	x.posList = make([]int32, prefixCSR(posCnt, x.posOff))
	x.negList = make([]int32, prefixCSR(negCnt, x.negOff))
	for ri := range p.Rules {
		r := &p.Rules[ri]
		x.headList[headCnt[r.Head]] = int32(ri)
		headCnt[r.Head]++
		for _, b := range p.body[r.Off:r.Neg] {
			x.posList[posCnt[b]] = int32(ri)
			posCnt[b]++
		}
		for _, b := range p.body[r.Neg:r.End] {
			x.negList[negCnt[b]] = int32(ri)
			negCnt[b]++
		}
	}
	return x
}

// index returns occurrence lists covering every rule of p: the view's own
// when they do, otherwise (a solve over a view extended since its lists
// were built) a full index built once per program.
func (p *Program) index() *occIndex {
	if p.remap == nil && p.from == len(p.Rules) {
		return p.occ
	}
	if x := p.full.Load(); x != nil {
		return x
	}
	x := buildOcc(p)
	if !p.full.CompareAndSwap(nil, x) {
		x = p.full.Load()
	}
	return x
}

// Condensation returns (building on first use) the full condensation of
// the program's atom dependency graph. Safe for concurrent callers; the
// program never gains rules afterwards (extension builds new views).
func (p *Program) Condensation() *Condensation {
	if c := p.cond.Load(); c != nil {
		return c
	}
	c := condense(p)
	if !p.cond.CompareAndSwap(nil, c) {
		c = p.cond.Load()
	}
	return c
}

// NumAtoms returns the universe size.
func (p *Program) NumAtoms() int { return p.n }

// Pos returns the positive body of rule r of p, guard first.
func (p *Program) Pos(r *chase.Instance) []int32 { return p.body[r.Off:r.Neg] }

// Neg returns the negative body of rule r of p.
func (p *Program) Neg(r *chase.Instance) []int32 { return p.body[r.Neg:r.End] }

// RulesFor returns the indexes of rules whose head is atom a.
func (p *Program) RulesFor(a int32) []int32 {
	base := p.occ.heads(a)
	if p.remap == nil && p.from == len(p.Rules) {
		return base
	}
	return p.res.RecordsSince(a, p.from, false, p.mapped(nil, base))
}

// mapped appends the rules of an occ list to dst, renumbered into p's
// rules and without the dead ones.
func (p *Program) mapped(dst, rules []int32) []int32 {
	if p.remap == nil {
		return append(dst, rules...)
	}
	for _, r := range rules {
		if j := p.remap[r]; j >= 0 {
			dst = append(dst, j)
		}
	}
	return dst
}

// New builds a program over n atoms from rules. Rule atom indexes must be
// in [0,n).
func New(n int, rules []Rule) *Program {
	p := &Program{n: n, Rules: make([]chase.Instance, len(rules)), from: len(rules)}
	size := 0
	for _, r := range rules {
		size += len(r.Pos) + len(r.Neg)
	}
	p.body = make([]int32, 0, size)
	for i, r := range rules {
		off := len(p.body)
		p.body = append(p.body, r.Pos...)
		neg := len(p.body)
		p.body = append(p.body, r.Neg...)
		p.Rules[i] = chase.Instance{Head: r.Head, Rule: -1, Off: int32(off), Neg: int32(neg), End: int32(len(p.body))}
	}
	p.occ = buildOcc(p)
	return p
}

// view returns the program res's arena holds, with occurrence lists occ
// read through remap and covering the rules before from.
func view(res *chase.Result, occ *occIndex, remap []int32, from int) *Program {
	return &Program{
		Atoms: res.Universe,
		Rules: res.Ground,
		body:  res.Body,
		n:     len(res.Universe),
		res:   res,
		occ:   occ,
		remap: remap,
		from:  from,
	}
}

// FromChase returns the finite ground normal program of a bounded chase
// result: a view of its arena — the derived universe plus every negative
// body atom of an instance, one rule per instance and one fact per
// depth-0 atom — with freshly built occurrence lists.
func FromChase(res *chase.Result) *Program {
	p := view(res, nil, nil, len(res.Ground))
	p.occ = buildOcc(p)
	return p
}

// ExtendFromChase returns the ground program of res, a continuation of
// the chase prev was built from: every atom and rule of prev keeps its
// index, and the view reuses prev's occurrence lists, reaching the
// records appended since through the chase's links. prev is not
// mutated, so a model computed over prev keeps serving concurrent
// readers. A prev that is not a chase view, or a res that does not
// extend prev's chase, falls back to FromChase.
func ExtendFromChase(prev *Program, res *chase.Result) *Program {
	if prev == nil || prev.res == nil || !res.Extends(prev.res) {
		return FromChase(res)
	}
	if x := prev.full.Load(); x != nil {
		return reuse(res, x, nil, x.rules)
	}
	return reuse(res, prev.occ, prev.remap, prev.from)
}

// RetractFromChase returns the ground program of res, a retraction of
// the chase prev was built from whose surviving records moved as remap
// says (chase.Retraction.Remap): a view of res's arena that reads prev's
// occurrence lists through remap, skipping the dead rules. Atoms keep
// their indexes. prev is not mutated. A prev that is not a view of the
// retracted chase, or a nil remap (the retraction compacted), falls back
// to FromChase.
func RetractFromChase(prev *Program, res *chase.Result, remap []int32) *Program {
	if prev == nil || prev.res == nil || remap == nil || len(remap) != len(prev.Rules) || !res.SameAtoms(prev.res) {
		return FromChase(res)
	}
	occ, base, from := prev.occ, prev.remap, prev.from
	if x := prev.full.Load(); x != nil {
		occ, base, from = x, nil, x.rules
	}
	comp := remap
	if base != nil {
		comp = make([]int32, len(base))
		for i, j := range base {
			comp[i] = -1
			if j >= 0 {
				comp[i] = remap[j]
			}
		}
	}
	// The live rules the lists covered keep their order at the front of
	// res's: they end after the last of them.
	newFrom := 0
	for j := from - 1; j >= 0; j-- {
		if remap[j] >= 0 {
			newFrom = int(remap[j]) + 1
			break
		}
	}
	return reuse(res, occ, comp, newFrom)
}

// reuse returns the view of res over lists occ read through remap and
// covering its rules before from — or, once the rules the lists miss
// (past from, or dead) exceed a quarter of those they cover, a view
// with rebuilt lists, so a sequence of extensions and retractions costs
// amortised time per changed record.
func reuse(res *chase.Result, occ *occIndex, remap []int32, from int) *Program {
	dead := 0
	if remap != nil {
		dead = occ.rules - from
	}
	if 4*(len(res.Ground)-from+dead) > from {
		return FromChase(res)
	}
	return view(res, occ, remap, from)
}

// Local returns the local index of global atom a, or -1 if a is not in the
// program's universe (atom.NoAtom included).
func (p *Program) Local(a atom.AtomID) int32 {
	if p.res == nil || a < 0 {
		return -1
	}
	return p.res.Local(a)
}

// sameAtoms reports whether p's atoms start with all of q's, numbered
// alike.
func (p *Program) sameAtoms(q *Program) bool {
	return p.res != nil && q.res != nil && p.res.SameAtoms(q.res)
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
	// global algorithm ran directly on the program). A model merged by
	// IncrementalModel carries its previous model's values forward.
	SCCs       int // dependency-graph components
	LargestSCC int // atoms in the largest component
	HardSCCs   int // components with a negation cycle (full WFS fixpoint)
	Workers    int // peak worker goroutines used by the solve

	// Interrupted reports that a cancellation token stopped the solve
	// before the fixpoint: Truth is a partial assignment and the model
	// must not be used for answering (callers convert it to an error).
	Interrupted bool

	// Cone, on a model IncrementalModel merged over a previous model
	// whose atoms it numbers alike, lists the atoms it re-solved, in
	// increasing order: every other atom of the previous universe kept
	// its truth value, and atoms new to the universe are false. Nil on a
	// model solved whole.
	Cone []int32
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
