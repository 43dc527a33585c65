// Transfinite: the paper's Examples 4, 6, and 9 — the program whose
// well-founded model is only reached at stage ŴP,ω+2 of the (transfinite)
// fixpoint iteration.
//
// The program (in TGD form; the engine Skolemizes it to the paper's Σf):
//
//	R(X,Y,Z) → ∃W R(X,Z,W)
//	R(X,Y,Z) ∧ P(X,Y) ∧ ¬Q(Z) → P(X,Z)
//	R(X,Y,Z) ∧ ¬P(X,Y) → Q(Z)
//	R(X,Y,Z) ∧ ¬P(X,Z) → S(X)
//	P(X,Y) ∧ ¬S(X) → T(X)
//
// with D = {R(0,0,1), P(0,0)}. T(0) is true in the WFS, but only "after ω"
// iterations: on depth-d truncations the round count grows with d while
// the answers stay fixed — the finite shadow of the transfinite stage.
//
// Run with: go run ./examples/transfinite
package main

import (
	"fmt"
	"log"

	"repro/internal/atom"
	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/program"
	"repro/internal/term"
)

const src = `
r(0,0,1).
p(0,0).
r(X,Y,Z) -> r(X,Z,W).
r(X,Y,Z), p(X,Y), not q(Z) -> p(X,Z).
r(X,Y,Z), not p(X,Y) -> q(Z).
r(X,Y,Z), not p(X,Z) -> s(X).
p(X,Y), not s(X) -> t(X).
`

func main() {
	st := atom.NewStore(term.NewStore())
	prog, db, _, err := program.CompileText(src, st)
	if err != nil {
		log.Fatal(err)
	}
	engine := core.NewEngine(prog, db, core.Options{})

	// Example 6: the guarded chase forest F+(P) up to depth 3.
	res := chase.Run(prog, db, chase.Options{MaxDepth: 3, MaxAtoms: 10000})
	fmt.Println("guarded chase forest F+(P) to depth 3 (paper Example 6):")
	fmt.Print(res.BuildForest(3, 200).Dump())

	// Examples 4 and 9: the highlighted literals of WFS(D,Σ), read off the
	// model at the default depth.
	fmt.Println("\nWFS consequences (Examples 4 and 9):")
	m := engine.Evaluate()
	for _, a := range []string{"t(0)", "s(0)", "q(1)", "p(0,0)", "p(0,1)"} {
		q, err := program.ParseQuery(a, st)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-8s %s\n", a, m.Truth(st.Instantiate(q.Pos[0], atom.NewSubst(0))))
	}

	// The growth of fixpoint rounds with truncation depth: the finite
	// shadow of ŴP,ω+2.
	fmt.Println("\nfixpoint rounds vs chase depth (transfinite shadow):")
	for _, d := range []int{4, 8, 16, 32} {
		m := engine.EvaluateAtDepth(d)
		fmt.Printf("  depth %2d: universe %3d atoms, %3d operator rounds\n",
			d, m.GP.NumAtoms(), m.GM.Rounds)
	}
}
