package core

import (
	"repro/internal/atom"
	"repro/internal/ground"
)

// WCheckStats reports how much of the program a goal-directed check
// touched.
type WCheckStats struct {
	// ClosureAtoms and ClosureRules measure the goal's dependency-closed
	// fragment; TotalAtoms and TotalRules the full bounded grounding.
	ClosureAtoms, ClosureRules int
	TotalAtoms, TotalRules     int
}

// WCheck decides membership of a ground atom in the well-founded model
// goal-directedly, realizing the paper's WCHECK (§4) deterministically.
//
// The paper's alternating procedure guesses a path from a root of F+(P) to
// the goal and verifies all side literals via subcomputations; the
// deterministic mirror of "only what is reachable from the goal matters"
// is the relevance property of the WFS: the truth of a depends only on the
// atoms reachable from a in the dependency graph of ground(P) (through
// positive and negative body atoms alike). WCheck therefore restricts the
// bounded grounding to the goal's dependency closure and runs the
// alternating fixpoint on that fragment only.
func (m *Model) WCheck(goal atom.AtomID) (ground.Truth, *WCheckStats) {
	gp := m.GP
	stats := &WCheckStats{TotalAtoms: gp.NumAtoms(), TotalRules: len(gp.Rules)}
	g := gp.Local(goal)
	if g < 0 {
		// Not in the derived universe: no forward proof within the
		// bound, hence false (Definition 5 commentary).
		return ground.False, stats
	}

	// Dependency closure: atoms reachable from the goal via "head → body
	// atom" edges; rules contributing are those whose head is reachable.
	reach := make(map[int32]int32) // global-local → closure-local
	order := []int32{g}
	reach[g] = 0
	var rules []ground.Rule
	for i := 0; i < len(order); i++ {
		a := order[i]
		for _, ri := range gp.RulesFor(a) {
			r := &gp.Rules[ri]
			nr := ground.Rule{Head: reach[a]}
			for _, b := range gp.Pos(r) {
				nb, ok := reach[b]
				if !ok {
					nb = int32(len(order))
					reach[b] = nb
					order = append(order, b)
				}
				nr.Pos = append(nr.Pos, nb)
			}
			for _, b := range gp.Neg(r) {
				nb, ok := reach[b]
				if !ok {
					nb = int32(len(order))
					reach[b] = nb
					order = append(order, b)
				}
				nr.Neg = append(nr.Neg, nb)
			}
			rules = append(rules, nr)
		}
	}
	stats.ClosureAtoms = len(order)
	stats.ClosureRules = len(rules)

	sub := ground.New(len(order), rules)
	sm := ground.AlternatingFixpoint(sub)
	return sm.Truth[0], stats
}
