package core

import (
	"encoding/binary"
	"sort"

	"repro/internal/atom"
	"repro/internal/ground"
	"repro/internal/program"
	"repro/internal/term"
	"repro/internal/trace"
)

// Answer evaluates an NBCQ (§2.3) three-valuedly against the model:
//
//   - True: some homomorphism maps every positive literal to a true atom
//     and every negative literal to a false atom (¬µ(b) ∈ WFS);
//   - Undefined: not True, but some homomorphism keeps every positive
//     literal at least undefined and every negative literal at most
//     undefined (the query may hold in some completion);
//   - False: otherwise.
func (m *Model) Answer(q *program.Query) ground.Truth { return m.AnswerTraced(q, nil) }

// AnswerTraced is Answer recording the matcher's work on tr, the caller's
// match span: atoms examined (candidates) and argument indexes built
// (index_builds). tr nil records nothing.
func (m *Model) AnswerTraced(q *program.Query, tr *trace.Span) ground.Truth {
	if q.Unsat {
		return ground.False
	}
	if m.findHom(q.Pos, q.Neg, q.NumVars, true, tr, nil) {
		return ground.True
	}
	if m.findHom(q.Pos, q.Neg, q.NumVars, false, tr, nil) {
		return ground.Undefined
	}
	return ground.False
}

// Satisfies reports the certain (two-valued) answer: WFS(D,Σ) |= Q.
func (m *Model) Satisfies(q *program.Query) bool {
	return !q.Unsat && m.findHom(q.Pos, q.Neg, q.NumVars, true, nil, nil)
}

// Select returns the certain answers of a non-Boolean query: the tuples of
// bindings for the query's variables (in VarNames order) under which the
// query certainly holds. Following §2.1, answers are tuples over the
// constants ∆ — homomorphisms mapping a variable to a labelled null are
// not answers. Tuples are deduplicated and ordered by the §2.1
// lexicographic term order.
func (m *Model) Select(q *program.Query) [][]term.ID { return m.SelectTraced(q, nil) }

// SelectTraced is Select recording the matcher's work on tr (see
// AnswerTraced).
func (m *Model) SelectTraced(q *program.Query, tr *trace.Span) [][]term.ID {
	if q.Unsat {
		return nil
	}
	st := m.Chase.Prog.Store
	seen := map[string]bool{}
	var out [][]term.ID
	key := make([]byte, 0, 4*q.NumVars)
	m.findHom(q.Pos, q.Neg, q.NumVars, true, tr, func(sub atom.Subst) bool {
		key = key[:0]
		for _, t := range sub {
			if t == term.None || st.Terms.Kind(t) != term.Const {
				return true // not a ∆-tuple; keep searching
			}
			key = binary.LittleEndian.AppendUint32(key, uint32(t))
		}
		if !seen[string(key)] {
			seen[string(key)] = true
			out = append(out, append([]term.ID(nil), sub...))
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		for k := range out[i] {
			if c := st.Terms.Compare(out[i][k], out[j][k]); c != 0 {
				return c < 0
			}
		}
		return false
	})
	return out
}

// Bindings enumerates the homomorphisms under which the query certainly
// holds, invoking cb with the bound substitution; return false from cb to
// stop early. The substitution is reused across calls: copy it if kept.
func (m *Model) Bindings(q *program.Query, cb func(atom.Subst) bool) {
	m.findHom(q.Pos, q.Neg, q.NumVars, true, nil, cb)
}

// findHom is the one NBCQ matcher: a backtracking join over the positive
// literals that joins, at every step, the cheapest remaining literal under
// the current bindings (matcher.next) and checks each negative literal as
// soon as its variables are bound. In strict mode positive atoms must be
// true and negative atoms false; otherwise positive atoms must be at least
// undefined and negative atoms at most undefined. If cb is nil, findHom
// reports whether any homomorphism exists; otherwise it enumerates them
// until cb returns false. A recording tr gets the matcher's counters.
func (m *Model) findHom(pos, neg []atom.Pattern, numVars int, strict bool, tr *trace.Span, cb func(atom.Subst) bool) bool {
	m.buildIndexes()
	buf := make([]int32, len(pos)+len(neg)+numVars)
	x := matcher{
		m: m, st: m.Chase.Prog.Store, pos: pos, neg: neg, strict: strict, cb: cb,
		sub:      atom.NewSubst(numVars),
		posOrder: buf[:len(pos)],
		negOrder: buf[len(pos) : len(pos)+len(neg)],
		trail:    buf[len(pos)+len(neg):][:0], // a slot is bound at most once
	}
	for i := range x.posOrder {
		x.posOrder[i] = int32(i)
	}
	for i := range x.negOrder {
		x.negOrder[i] = int32(i)
	}
	x.search(0, 0)
	if tr.Enabled() {
		tr.Count("candidates", x.examined)
		tr.Count("index_builds", x.builds)
	}
	return x.found
}

// matcher is the state of one findHom search.
type matcher struct {
	m        *Model
	st       *atom.Store
	pos, neg []atom.Pattern
	strict   bool
	cb       func(atom.Subst) bool

	sub   atom.Subst
	trail []int32 // variable slots bound so far, for backtracking
	// Literal indexes, permuted in place: on the current branch the first
	// npos of posOrder are joined and the first nneg of negOrder checked
	// (search's arguments). A deeper call only permutes beyond its
	// caller's prefix, so backtracking restores nothing.
	posOrder, negOrder []int32
	found              bool

	examined, builds int64 // atoms examined, argument indexes built
}

// How a positive literal draws its candidates under the current bindings,
// cheapest first.
const (
	byLookup = iota // every argument bound: one store lookup
	byIndex         // some argument bound: one argument-index bucket
	byScan          // no argument bound: the predicate's whole list
)

// search extends the current bindings over the positive literals not yet
// joined. It reports whether the enumeration should continue (false once
// cb, or a nil cb's first homomorphism, stopped it).
func (x *matcher) search(npos, nneg int) bool {
	// A negative literal prunes as soon as it is ground. After the last
	// positive literal every one must be (query safety).
	for k := nneg; k < len(x.negOrder); k++ {
		p := x.neg[x.negOrder[k]]
		if npos < len(x.pos) && x.nbound(p) < len(p.Args) {
			continue
		}
		if !x.negHolds(p) {
			return true // dead branch; keep searching
		}
		x.negOrder[k], x.negOrder[nneg] = x.negOrder[nneg], x.negOrder[k]
		nneg++
	}
	if npos == len(x.pos) {
		x.found = true
		return x.cb != nil && x.cb(x.sub)
	}
	k, cands, how := x.next(npos)
	x.posOrder[k], x.posOrder[npos] = x.posOrder[npos], x.posOrder[k]
	p := x.pos[x.posOrder[npos]]
	if how == byLookup {
		x.examined++
		a, ok := x.st.InstantiateLookup(p, x.sub)
		return !ok || !x.m.Usable(a) || !x.posHolds(a) || x.search(npos+1, nneg)
	}
	for _, a := range cands {
		x.examined++
		if x.strict && !x.posHolds(a) {
			continue // the lists hold true ∪ undefined
		}
		mark := len(x.trail)
		if x.st.Match(p, a, x.sub, &x.trail) {
			more := x.search(npos+1, nneg)
			atom.Undo(x.sub, &x.trail, mark)
			if !more {
				return false
			}
		}
	}
	return true
}

// next picks the positive literal to join next, as a position ≥ npos of
// posOrder: a fully bound one if any, else the partially bound one with
// the fewest candidates, else the all-variable one with the shortest list;
// ties go to query order.
func (x *matcher) next(npos int) (best int, cands []atom.AtomID, how int) {
	best = -1
	for k := npos; k < len(x.posOrder); k++ {
		c, h := x.candidates(x.pos[x.posOrder[k]])
		if h == byLookup {
			return k, nil, h // nothing is cheaper; build no index for the rest
		}
		if best < 0 || h < how || h == how &&
			(len(c) < len(cands) || len(c) == len(cands) && x.posOrder[k] < x.posOrder[best]) {
			best, cands, how = k, c, h
		}
	}
	return best, cands, how
}

// candidates returns the atoms positive literal p may match under the
// current bindings, and how they are drawn: no list for a fully bound
// literal (the caller looks its one atom up), the smallest bucket among the
// bound positions' argument indexes for a partially bound one (building
// them on first use), the predicate's whole list otherwise.
func (x *matcher) candidates(p atom.Pattern) ([]atom.AtomID, int) {
	if int(p.Pred) >= len(x.m.preds) || x.m.preds[p.Pred] == nil {
		return nil, byScan // no true or undefined atom: nothing matches
	}
	pi := x.m.preds[p.Pred]
	switch x.nbound(p) {
	case len(p.Args):
		return nil, byLookup
	case 0:
		return pi.atoms, byScan
	}
	cands := pi.atoms
	for pos, a := range p.Args {
		if t := argValue(a, x.sub); t != term.None {
			if b := pi.bucket(x.st, pos, t, &x.builds); len(b) < len(cands) {
				cands = b
			}
		}
	}
	return cands, byIndex
}

// nbound counts the arguments of p that are constants or bound variables.
func (x *matcher) nbound(p atom.Pattern) (n int) {
	for _, a := range p.Args {
		if argValue(a, x.sub) != term.None {
			n++
		}
	}
	return n
}

func (x *matcher) posHolds(a atom.AtomID) bool {
	t := x.m.Truth(a)
	return t == ground.True || !x.strict && t == ground.Undefined
}

func (x *matcher) negHolds(p atom.Pattern) bool {
	t := ground.False // never derived: no forward proof
	if a, ok := x.st.InstantiateLookup(p, x.sub); ok {
		t = x.m.Truth(a)
	}
	return t == ground.False || !x.strict && t == ground.Undefined
}
