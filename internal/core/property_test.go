package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/atom"
	"repro/internal/program"
	"repro/internal/term"
)

// randomGuardedSource generates a random guarded normal Datalog± program
// with facts, side atoms, negation, and occasional existential heads —
// the full feature surface of the chase+WFS pipeline.
func randomGuardedSource(rng *rand.Rand) string {
	numPreds := 2 + rng.Intn(4)
	arity := func(p int) int { return 1 + (p % 2) } // arities 1 and 2
	pred := func(p int) string { return fmt.Sprintf("p%d", p) }
	consts := []string{"a", "b", "c"}

	var b strings.Builder
	// Facts.
	for i := 0; i < 2+rng.Intn(4); i++ {
		p := rng.Intn(numPreds)
		args := make([]string, arity(p))
		for j := range args {
			args[j] = consts[rng.Intn(len(consts))]
		}
		fmt.Fprintf(&b, "%s(%s).\n", pred(p), strings.Join(args, ","))
	}
	// Rules.
	for i := 0; i < 2+rng.Intn(5); i++ {
		g := rng.Intn(numPreds)
		ga := arity(g)
		vars := make([]string, ga)
		for j := range vars {
			vars[j] = fmt.Sprintf("X%d", j)
		}
		body := []string{fmt.Sprintf("%s(%s)", pred(g), strings.Join(vars, ","))}
		pickArgs := func(n int) string {
			out := make([]string, n)
			for j := range out {
				if rng.Intn(4) == 0 {
					out[j] = consts[rng.Intn(len(consts))]
				} else {
					out[j] = vars[rng.Intn(len(vars))]
				}
			}
			return strings.Join(out, ",")
		}
		for s := rng.Intn(2); s > 0; s-- {
			sp := rng.Intn(numPreds)
			body = append(body, fmt.Sprintf("%s(%s)", pred(sp), pickArgs(arity(sp))))
		}
		for s := rng.Intn(3); s > 0; s-- {
			sp := rng.Intn(numPreds)
			body = append(body, fmt.Sprintf("not %s(%s)", pred(sp), pickArgs(arity(sp))))
		}
		h := rng.Intn(numPreds)
		ha := arity(h)
		hargs := make([]string, ha)
		for j := range hargs {
			if rng.Intn(6) == 0 {
				hargs[j] = fmt.Sprintf("Z%d", j) // existential
			} else {
				hargs[j] = vars[rng.Intn(len(vars))]
			}
		}
		fmt.Fprintf(&b, "%s -> %s(%s).\n", strings.Join(body, ", "), pred(h), strings.Join(hargs, ","))
	}
	return b.String()
}

// TestPipelinePropertyRandomGuarded is the end-to-end property test: on
// random guarded normal programs, (1) every reference WFS operator, run
// on the production model's bounded grounding, reproduces its model, (2)
// WCHECK agrees with saturation on every universe atom, and (3) on
// positive programs nothing is undefined.
func TestPipelinePropertyRandomGuarded(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for round := 0; round < 120; round++ {
		src := randomGuardedSource(rng)
		st := atom.NewStore(term.NewStore())
		prog, db, _, err := program.CompileText(src, st)
		if err != nil {
			t.Fatalf("round %d: generated program invalid: %v\n%s", round, err, src)
		}
		m := NewEngine(prog, db, Options{Depth: 5}).Evaluate()
		if name, ok := agreesWithReferences(m); !ok {
			t.Fatalf("round %d: %s disagrees with the production model on\n%s", round, name, src)
		}
		for i, g := range m.GP.Atoms {
			got, _ := m.WCheck(g)
			if got != m.GM.Truth[i] {
				t.Fatalf("round %d: WCheck(%s)=%v saturated=%v on\n%s",
					round, st.String(g), got, m.GM.Truth[i], src)
			}
		}
		if prog.IsPositive() && m.GM.CountUndefined() != 0 {
			t.Fatalf("round %d: positive program has undefined atoms\n%s", round, src)
		}
	}
}

// TestDeepeningStableOnSaturatedPrograms: once the chase saturates, all
// deeper evaluations produce the identical model (exactness).
func TestDeepeningStableOnSaturatedPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for round := 0; round < 40; round++ {
		src := randomGuardedSource(rng)
		st := atom.NewStore(term.NewStore())
		prog, db, _, err := program.CompileText(src, st)
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(prog, db, Options{})
		m1 := e.EvaluateAtDepth(12)
		if !m1.Exact {
			continue // infinite chase; skip
		}
		m2 := e.EvaluateAtDepth(20)
		if len(m1.GP.Atoms) != len(m2.GP.Atoms) {
			t.Fatalf("round %d: saturated universes differ", round)
		}
		for i := range m1.GP.Atoms {
			if m1.GM.Truth[i] != m2.GM.Truth[i] {
				t.Fatalf("round %d: saturated truths differ at %s",
					round, st.String(m1.GP.Atoms[i]))
			}
		}
	}
}

// TestStratifiedRandomMatchesWFS: generated programs that happen to be
// stratified must have a two-valued WFS on the bounded universe equal to
// the perfect model (via strat is tested in its own package; here we
// assert two-valuedness, the §1 coincidence precondition).
func TestStratifiedRandomTwoValued(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	checked := 0
	for round := 0; round < 150 && checked < 30; round++ {
		src := randomGuardedSource(rng)
		st := atom.NewStore(term.NewStore())
		prog, db, _, err := program.CompileText(src, st)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := prog.Stratify(); !ok {
			continue
		}
		checked++
		m := NewEngine(prog, db, Options{Depth: 6}).Evaluate()
		if m.GM.CountUndefined() != 0 {
			t.Fatalf("stratified program has undefined atoms:\n%s", src)
		}
	}
	if checked == 0 {
		t.Fatalf("no stratified programs generated")
	}
}

// TestGroundProgramWellFormed: every instance extracted from the chase
// references only universe atoms and its rule's shape.
func TestGroundProgramWellFormed(t *testing.T) {
	rng := rand.New(rand.NewSource(555))
	for round := 0; round < 60; round++ {
		src := randomGuardedSource(rng)
		st := atom.NewStore(term.NewStore())
		prog, db, _, err := program.CompileText(src, st)
		if err != nil {
			t.Fatal(err)
		}
		m := NewEngine(prog, db, Options{Depth: 5}).Evaluate()
		gp := m.GP
		for _, rec := range m.Chase.Instances {
			in := &gp.Rules[rec]
			if !m.Chase.Derived(gp.Atoms[in.Head]) {
				t.Fatalf("instance head not derived")
			}
			for _, b := range gp.Pos(in) {
				if !m.Chase.Derived(gp.Atoms[b]) {
					t.Fatalf("instance positive body atom not derived")
				}
			}
			for _, b := range gp.Neg(in) {
				if gp.Local(gp.Atoms[b]) != b {
					t.Fatalf("negative body atom missing from ground universe")
				}
			}
		}

	}
}
