// Package bench provides the workload generators for the paper's worked
// examples and complexity families. The paper-claim tests of this package
// (E4, E5, E6, E9; DESIGN.md §5) and the benchmark harness under
// benchmark/ are built on them.
package bench

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/dllite"
)

// Example4 is the paper's Example 4 program (surface syntax; the compiler
// applies the functional transformation of Example 4's Σf).
const Example4 = `
r(0,0,1).
p(0,0).
r(X,Y,Z) -> r(X,Z,W).
r(X,Y,Z), p(X,Y), not q(Z) -> p(X,Z).
r(X,Y,Z), not p(X,Y) -> q(Z).
r(X,Y,Z), not p(X,Z) -> s(X).
p(X,Y), not s(X) -> t(X).
`

// WinMoveRule is the classic well-founded negation benchmark rule.
const WinMoveRule = "move(X,Y), not win(Y) -> win(X).\n"

// WinMoveChain generates a win-move game on a path v0 → v1 → … → vn.
func WinMoveChain(n int) string {
	var b strings.Builder
	b.WriteString(WinMoveRule)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "move(v%d, v%d).\n", i, i+1)
	}
	return b.String()
}

// WinMoveCycle generates a win-move game on a cycle of length n (every
// position undefined for even n).
func WinMoveCycle(n int) string {
	var b strings.Builder
	b.WriteString(WinMoveRule)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "move(c%d, c%d).\n", i, (i+1)%n)
	}
	return b.String()
}

// WinMoveRandom generates a win-move game on a random graph with n nodes
// and m edges (deterministic in seed).
func WinMoveRandom(n, m int, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	b.WriteString(WinMoveRule)
	for i := 0; i < m; i++ {
		fmt.Fprintf(&b, "move(v%d, v%d).\n", rng.Intn(n), rng.Intn(n))
	}
	return b.String()
}

// WinMoveComponents generates k disjoint win-move chains of length l each:
// a many-component instance where goal-directed checking (E7) touches a
// single component.
func WinMoveComponents(k, l int) string {
	var b strings.Builder
	b.WriteString(WinMoveRule)
	for c := 0; c < k; c++ {
		for i := 0; i < l; i++ {
			fmt.Fprintf(&b, "move(n%d_%d, n%d_%d).\n", c, i, c, i+1)
		}
	}
	return b.String()
}

// ReachChain generates a positive guarded reachability program over a
// chain of n edges (guarded Datalog± without negation, the [1] fragment).
func ReachChain(n int) string {
	var b strings.Builder
	b.WriteString("start(v0).\n")
	b.WriteString("start(X) -> reach(X).\n")
	b.WriteString("reach(X), edge(X,Y) -> reach(Y).\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "edge(v%d, v%d).\n", i, i+1)
	}
	return b.String()
}

// ExpChase generates a positive program whose chase has size 2^(k+1): k
// levels with two existential rules each (a binary tree of nulls). Chase
// size — and hence evaluation time — grows exponentially in the program
// size 2k, the combined-complexity shape of Theorem 13 (E2).
func ExpChase(k int) string {
	var b strings.Builder
	b.WriteString("lvl0(c).\n")
	for i := 0; i < k; i++ {
		fmt.Fprintf(&b, "lvl%d(X) -> lvl%d(Y).\n", i, i+1)
		fmt.Fprintf(&b, "lvl%d(X) -> lvl%d(Z).\n", i, i+1)
	}
	return b.String()
}

// PermFamily generates a positive program over a single arity-w predicate
// whose chase enumerates all w! permutations of the initial tuple (a
// rotation rule plus an adjacent transposition generate the symmetric
// group). Universe growth is superexponential in w — the unbounded-arity
// blow-up shape of Theorem 13 (E3).
func PermFamily(w int) string {
	vars := make([]string, w)
	consts := make([]string, w)
	for i := 0; i < w; i++ {
		vars[i] = fmt.Sprintf("X%d", i+1)
		consts[i] = fmt.Sprintf("c%d", i+1)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "p(%s).\n", strings.Join(consts, ","))
	rot := append(append([]string{}, vars[1:]...), vars[0])
	fmt.Fprintf(&b, "p(%s) -> p(%s).\n", strings.Join(vars, ","), strings.Join(rot, ","))
	if w >= 2 {
		swap := append([]string{}, vars...)
		swap[0], swap[1] = swap[1], swap[0]
		fmt.Fprintf(&b, "p(%s) -> p(%s).\n", strings.Join(vars, ","), strings.Join(swap, ","))
	}
	return b.String()
}

// EmploymentOntology builds the Example 2 DL-Lite_{R,⊓,not} ontology:
//
//	Person ⊓ Employed ⊓ not ∃JobSeekerID ⊑ ∃EmployeeID
//	Person ⊓ not Employed ⊓ not ∃EmployeeID ⊑ ∃JobSeekerID
//	∃EmployeeID⁻ ⊓ not ∃JobSeekerID⁻ ⊑ ValidID
func EmploymentOntology() *dllite.Ontology {
	o := dllite.New()
	o.SubClass(dllite.Exists("EmployeeID"),
		dllite.Pos(dllite.Atomic("Person")),
		dllite.Pos(dllite.Atomic("Employed")),
		dllite.Not(dllite.Exists("JobSeekerID")))
	o.SubClass(dllite.Exists("JobSeekerID"),
		dllite.Pos(dllite.Atomic("Person")),
		dllite.Not(dllite.Atomic("Employed")),
		dllite.Not(dllite.Exists("EmployeeID")))
	o.SubClass(dllite.Atomic("ValidID"),
		dllite.Pos(dllite.ExistsInv("EmployeeID")),
		dllite.Not(dllite.ExistsInv("JobSeekerID")))
	return o
}

// EmploymentFamily returns the Example 2 ontology populated with n
// persons, every third one employed (a data-complexity family mixing
// existentials and negation, E1/E9).
func EmploymentFamily(n int) *dllite.Ontology {
	o := EmploymentOntology()
	for i := 0; i < n; i++ {
		ind := fmt.Sprintf("p%d", i)
		o.AssertConcept("Person", ind)
		if i%3 == 0 {
			o.AssertConcept("Employed", ind)
		}
	}
	return o
}

// LadderFamily generates the adaptive-ladder stress workload: a program
// whose chase does not saturate within the deepening ceiling and whose
// query answer flips at every rung, so adaptive deepening walks the full
// ladder — the worst case for per-rung re-chasing and the best case for
// a resumable chase.
//
// Structure (levels = the deepest predicate chain, m = bulk width):
//
//   - m ternary existential chains b0(s,t,u) → b1 → … grow the derived
//     universe by m atoms (each with a fresh Skolem null) per chase
//     depth: the linear-in-depth bulk that a resumable chase derives and
//     interns once and per-rung re-chasing re-derives per rung.
//   - one unary probe chain a0 → a1 → … measures the frontier: for each
//     level i ≡ 1 (mod 4), the rule a_i(X), not a_{i+2}(X) → g(X) fires
//     exactly when a_i is expanded but a_{i+2} is beyond the depth bound,
//     so g's truth value alternates between consecutive rungs of the
//     default schedule (start 4, step 2).
//   - base(X), not g(X) → flip(X) re-inverts g at forest depth 1, where
//     the query "? flip(X)." can always see it (the guard band hides the
//     frontier itself from query matching, but not from rule bodies).
//
// The answer therefore never meets the stability window and the ladder
// climbs to MaxDepth — with all negation shallow and acyclic, so the WFS
// fixpoint converges in O(1) rounds at every rung and the cost profile
// stays chase-dominated.
func LadderFamily(m, levels int) string {
	var b strings.Builder
	b.WriteString("base(c).\na0(c).\n")
	for j := 0; j < m; j++ {
		fmt.Fprintf(&b, "b0(s%d, t%d, u%d).\n", j, j, j)
	}
	for i := 0; i < levels; i++ {
		fmt.Fprintf(&b, "a%d(X) -> a%d(X).\n", i, i+1)
		fmt.Fprintf(&b, "b%d(X,Y,Z) -> b%d(Y,Z,W).\n", i, i+1)
		if i%4 == 1 && i+2 <= levels {
			fmt.Fprintf(&b, "a%d(X), not a%d(X) -> g(X).\n", i, i+2)
		}
	}
	b.WriteString("base(X), not g(X) -> flip(X).\n")
	return b.String()
}

// UpdateFamily generates the update-heavy workload: a large EDB of k
// disjoint win-move chains of length l, against which a trickle of fact
// additions and retractions mutates one chain at a time. Each delta's
// dependency cone is one component (~l atoms of a k·l universe), so an
// incremental engine — resumed chase, DRed retraction,
// warm-started fixpoint — re-derives a vanishing fraction of what an
// invalidate-and-rebuild evaluation recomputes (the harness's
// mutate_durable workload measures it). Chains (rather than cycles) make
// every retraction flip truth values along the whole mutated chain, so
// the delta path cannot cheat by noticing that nothing changed.
func UpdateFamily(k, l int) string { return WinMoveComponents(k, l) }

// StratifiedFamily generates a stratified guarded program with negation
// across strata over n persons (E5): stratum 0 derives employment from
// contracts, stratum 1 derives seekers by negation, stratum 2 benefits.
func StratifiedFamily(n int) string {
	var b strings.Builder
	b.WriteString("contract(X, Y) -> employed(X).\n")
	b.WriteString("person(X), not employed(X) -> seeker(X).\n")
	b.WriteString("seeker(X), not retired(X) -> benefits(X).\n")
	b.WriteString("oldAge(X) -> retired(X).\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "person(p%d).\n", i)
		switch i % 3 {
		case 0:
			fmt.Fprintf(&b, "contract(p%d, c%d).\n", i, i)
		case 1:
			fmt.Fprintf(&b, "oldAge(p%d).\n", i)
		}
	}
	return b.String()
}
