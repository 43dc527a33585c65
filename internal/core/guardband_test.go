package core

import (
	"testing"

	"repro/internal/ground"
	"repro/internal/program"
	"repro/internal/term"
)

// TestGuardBandSuppressesFrontierArtifact documents why the guard band
// exists (DESIGN.md §2 substitutions): at any fixed truncation depth the
// last chain atom R(0,t_{k},t_{k+1}) has no P-child yet, so without the
// band the query ∃XYZ r(X,Y,Z) ∧ ¬p(X,Z) would wrongly appear true at
// every depth — the frontier artifact the paper's locality lemmas rule
// out for depth n·δ.
func TestGuardBandSuppressesFrontierArtifact(t *testing.T) {
	prog, db, _, st := compile(t, example4)
	q, err := program.ParseQuery("? r(X, Y, Z), not p(X, Z).", st)
	if err != nil {
		t.Fatal(err)
	}

	e := NewEngine(prog, db, Options{Depth: 8})
	m := e.Evaluate()
	if got := m.Answer(q); got != ground.False {
		t.Errorf("with guard band: answer = %v, want false", got)
	}

	// White box: disabling the band (UsableDepth -1 = everything usable)
	// on the same truncated model exposes the artifact. A fresh engine is
	// used because models are cached per depth and m above must keep its
	// guard-banded indexes.
	raw := NewEngine(prog, db, Options{Depth: 8}).EvaluateAtDepth(8)
	raw.UsableDepth = -1
	if got := raw.Answer(q); got != ground.True {
		t.Errorf("without guard band the frontier artifact should appear (got %v)", got)
	}
}

func TestGuardBandNotAppliedWhenExact(t *testing.T) {
	// Saturating chase: every atom is usable regardless of depth.
	prog, db, _, st := compile(t, `
start(a). edge(a,b). edge(b,c).
start(X) -> reach(X).
reach(X), edge(X,Y) -> reach(Y).
`)
	e := NewEngine(prog, db, Options{Depth: 8})
	m := e.Evaluate()
	if !m.Exact {
		t.Fatalf("chase should saturate")
	}
	if m.UsableDepth != -1 {
		t.Errorf("UsableDepth = %d on exact model, want -1", m.UsableDepth)
	}
	q, err := program.ParseQuery("? reach(c).", st)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Answer(q); got != ground.True {
		t.Errorf("reach(c) = %v", got)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Depth != DefaultDepth || o.GuardBand != 2 || o.StabilityWindow != 2 {
		t.Errorf("defaults wrong: %+v", o)
	}
	if o.AdaptiveStart != o.GuardBand+2 {
		t.Errorf("AdaptiveStart = %d, want GuardBand+2", o.AdaptiveStart)
	}
	// Explicit values survive.
	o2 := Options{Depth: 3, GuardBand: 1, MaxDepth: 9}.withDefaults()
	if o2.Depth != 3 || o2.GuardBand != 1 || o2.MaxDepth != 9 {
		t.Errorf("explicit options overridden: %+v", o2)
	}
}

func TestTruthOutsideUniverse(t *testing.T) {
	prog, db, _, st := compile(t, "p(a).")
	m := NewEngine(prog, db, Options{}).Evaluate()
	pp, _ := st.LookupPred("p")
	never := st.Atom(pp, []term.ID{st.Terms.Const("zzz")})
	if got := m.Truth(never); got != ground.False {
		t.Errorf("atom outside universe = %v, want false", got)
	}
}
