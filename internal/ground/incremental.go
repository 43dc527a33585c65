// Warm-started WFS evaluation for incremental updates.
//
// The well-founded semantics has the relevance property: the truth value
// of an atom is determined by its dependency cone — the rules for it,
// the rules for their body atoms, and so on. After a delta, therefore,
// only atoms whose cone contains a change can change truth value. Those
// are exactly the atoms reachable from the changed atoms in the forward
// (body → head) direction of the dependency graph, through positive and
// negative occurrences alike.
//
// IncrementalModel exploits this: it closes the changed seeds forward
// into an "affected" set, extracts the affected subprogram with the
// unaffected boundary atoms replaced by their (provably unchanged)
// previous truth values — true boundary atoms become facts, false ones
// vanish, undefined ones are pinned undefined by a self-blocking rule
// u ← not u — solves the subprogram with the configured WFS algorithm,
// and merges the sub-model over the previous one. By the splitting
// theorem for WFS (unaffected atoms form a bottom stratum: none of their
// rules mentions an affected atom, or the head would be affected), the
// merge is the exact well-founded model of the new program; the delta
// cross-check suite verifies this against from-scratch evaluation under
// all four algorithms.
//
// The forward closure walks the program's occurrence lists atom by atom:
// from each affected atom to the heads of the rules with it in the body.
// Nothing is condensed for it: the walk costs time in the cone, and what
// stays proportional to the program is two flat arrays, the affected
// flags and the merged truths. Only the cone subprogram — and the
// fallback that solves everything when the cone covers more than a
// quarter of the program, where the walk stops — goes through the
// modular solver's condensation.
package ground

import (
	"slices"

	"repro/internal/atom"
	"repro/internal/cancel"
	"repro/internal/trace"
)

// cancelPollEvery is how many closure-stack pops run between token
// polls during the cone walk.
const cancelPollEvery = 256

// IncrementalModel computes the well-founded model of gp by warm-starting
// from prev, the model of an earlier revision of the program sharing gp's
// global atom ID space. seeds lists the global atoms whose ground rule
// set changed in the revision (heads of added and deleted rules, added
// and retracted facts); seeds outside gp's universe are ignored (they
// died with their derivations — anything that referenced them is seeded
// through the rules that died). solve runs the configured fixpoint
// algorithm on a (sub)program.
//
// Falls back to solve(gp) when no previous model is available, when the
// programs are not chase-grounded (no global ID space to align on), or
// when the affected cone covers more than a quarter of the program and
// solving the subprogram would cost about as much as solving everything.
func IncrementalModel(gp *Program, prev *Model, seeds []atom.AtomID, solve func(*Program) *Model) *Model {
	return IncrementalModelTraced(gp, prev, seeds, solve, nil)
}

// IncrementalModelTraced is IncrementalModel with observability: cone
// sizes (seeds, affected atoms, universe, subprogram rules) as counters
// on tr and the affected-cone solve as a cone-solve child span. tr nil
// degrades to the plain warm start.
func IncrementalModelTraced(gp *Program, prev *Model, seeds []atom.AtomID, solve func(*Program) *Model, tr *trace.Span) *Model {
	return IncrementalModelCancelTraced(gp, prev, seeds, solve, nil, tr)
}

// IncrementalModelCancelTraced is IncrementalModelTraced under a
// cancellation token (nil = never cancelled): the cone closure polls the
// token every cancelPollEvery atoms, and an interrupted cone solve (the
// solve closure is expected to carry the same token) propagates
// Interrupted to the merged model.
func IncrementalModelCancelTraced(gp *Program, prev *Model, seeds []atom.AtomID, solve func(*Program) *Model, tok *cancel.Token, tr *trace.Span) *Model {
	tr.SetCount("seeds", int64(len(seeds)))
	if prev == nil || prev.Prog == nil || gp.Atoms == nil || prev.Prog.Atoms == nil {
		end := tr.Phase("cold-solve")
		defer end()
		return solve(gp)
	}
	n := gp.NumAtoms()
	endClosure := tr.Phase("cone-closure")
	seedIdx := make([]int32, 0, len(seeds))
	for _, g := range seeds {
		if i := gp.Local(g); i >= 0 {
			seedIdx = append(seedIdx, i)
		}
	}
	// The walk stops past a quarter of the universe, where the full
	// solve takes over: it then reports ⌊n/4⌋+1 affected atoms.
	affected, cone := forwardCone(gp, seedIdx, n/4, tok)
	if affected == nil {
		endClosure()
		return &Model{Prog: gp, Truth: make([]Truth, n), Interrupted: true}
	}
	endClosure()
	nAff := len(cone)
	tr.SetCount("affected_atoms", int64(nAff))
	tr.SetCount("universe_atoms", int64(n))
	// Atoms keep their indexes across continuations and retractions of
	// one chase; after a compaction the chase renumbered them, and prev
	// is read by global ID.
	prevTruth := func(i int32) Truth { return prev.TruthOfGlobal(gp.Atoms[i]) }
	same := gp.sameAtoms(prev.Prog)
	if same {
		prevTruth = func(i int32) Truth {
			if int(i) < len(prev.Truth) {
				return prev.Truth[i]
			}
			return False // new to the universe and unaffected: no rules
		}
	}
	// Merged models carry the shape of the last full solve forward, so
	// the observability stats survive delta applies (the steady-state
	// path of a mutating session) without condensing the whole program.
	wrap := func(out []Truth, rounds, workers int) *Model {
		m := &Model{
			Prog:       gp,
			Truth:      out,
			Rounds:     rounds,
			SCCs:       prev.SCCs,
			LargestSCC: prev.LargestSCC,
			HardSCCs:   prev.HardSCCs,
			Workers:    max(workers, 1),
		}
		if same {
			m.Cone = cone[:nAff:nAff]
			if m.Cone == nil {
				m.Cone = []int32{}
			}
		}
		return m
	}
	merged := func() []Truth {
		out := make([]Truth, n)
		if same {
			copy(out, prev.Truth) // the atoms past prev's universe are false
			return out
		}
		for i := range out {
			out[i] = prevTruth(int32(i))
		}
		return out
	}
	if nAff == 0 {
		return wrap(merged(), 0, 1)
	}
	if nAff*4 > n {
		end := tr.Phase("cold-solve")
		defer end()
		return solve(gp)
	}

	// Build the affected subprogram over a dense sub-index: the cone
	// first, in increasing atom order, then the undefined boundary atoms
	// as they are met. Unaffected body atoms either resolve away
	// (true/false) or enter as boundary atoms pinned undefined.
	slices.Sort(cone)
	subIdx := make(map[int32]int32, nAff)
	subAtoms := cone // sub index → gp-local index
	for si, a := range cone {
		subIdx[a] = int32(si)
	}
	subOf := func(i int32) int32 {
		if si, ok := subIdx[i]; ok {
			return si
		}
		si := int32(len(subAtoms))
		subIdx[i] = si
		subAtoms = append(subAtoms, i)
		return si
	}
	var subRules []Rule
	for si := 0; si < nAff; si++ {
		for _, ri := range gp.RulesFor(subAtoms[si]) {
			r := &gp.Rules[ri]
			nr := Rule{Head: int32(si)}
			keep := true
			for _, b := range gp.Pos(r) {
				if affected[b] {
					nr.Pos = append(nr.Pos, subOf(b))
					continue
				}
				switch prevTruth(b) {
				case True: // satisfied: drop the literal
				case False:
					keep = false
				default: // undefined boundary: keep, pinned below
					nr.Pos = append(nr.Pos, subOf(b))
				}
				if !keep {
					break
				}
			}
			if keep {
				for _, b := range gp.Neg(r) {
					if affected[b] {
						nr.Neg = append(nr.Neg, subOf(b))
						continue
					}
					switch prevTruth(b) {
					case True:
						keep = false
					case False: // satisfied: drop the literal
					default:
						nr.Neg = append(nr.Neg, subOf(b))
					}
					if !keep {
						break
					}
				}
			}
			if keep {
				subRules = append(subRules, nr)
			}
		}
	}
	// Pin every unaffected boundary atom to its previous (undefined)
	// truth with u ← not u. True/false boundary atoms never reached
	// subOf, so everything here beyond the cone is undefined.
	for si := int32(nAff); int(si) < len(subAtoms); si++ {
		subRules = append(subRules, Rule{Head: si, Neg: []int32{si}})
	}
	tr.SetCount("sub_rules", int64(len(subRules)))
	endSolve := tr.Phase("cone-solve")
	sm := solve(New(len(subAtoms), subRules))
	endSolve()
	if sm.Interrupted {
		return &Model{Prog: gp, Truth: make([]Truth, n), Interrupted: true}
	}
	out := merged()
	for si, a := range subAtoms[:nAff] {
		out[a] = sm.Truth[si]
	}
	return wrap(out, sm.Rounds, sm.Workers)
}

// forwardCone closes seeds forward over gp's occurrence lists — from
// each atom to the heads of the rules with it in the body, positively or
// negatively — and returns the membership flags and the atoms of the
// cone. The view's lists are read through its renumbering, and the rules
// past them are reached through the chase's links. The walk stops as
// soon as the cone holds more than limit atoms. A cancelled walk returns
// nil flags.
func forwardCone(gp *Program, seeds []int32, limit int, tok *cancel.Token) (affected []bool, cone []int32) {
	affected = make([]bool, gp.NumAtoms())
	var stack, more []int32
	mark := func(a int32) bool { // reports that the cone is within limit
		if !affected[a] {
			affected[a] = true
			cone = append(cone, a)
			stack = append(stack, a)
		}
		return len(cone) <= limit
	}
	for _, a := range seeds {
		if !mark(a) {
			return affected, cone
		}
	}
	occ := gp.occ
	budget := cancelPollEvery
	for len(stack) > 0 {
		if budget--; budget <= 0 {
			budget = cancelPollEvery
			if tok.Cancelled() {
				return nil, nil
			}
		}
		a := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		more = more[:0]
		pos, neg := occ.pos(a), occ.neg(a)
		if gp.remap != nil {
			more = gp.mapped(gp.mapped(more, pos), neg)
			pos, neg = nil, nil
		}
		if gp.from < len(gp.Rules) {
			more = gp.res.RecordsSince(a, gp.from, true, more)
		}
		for _, rules := range [3][]int32{pos, neg, more} {
			for _, ri := range rules {
				if !mark(gp.Rules[ri].Head) {
					return affected, cone
				}
			}
		}
	}
	return affected, cone
}
