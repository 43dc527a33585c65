package delta

import (
	"testing"

	"repro/internal/atom"
	"repro/internal/chase"
	"repro/internal/ground"
	"repro/internal/program"
	"repro/internal/term"
)

func compile(t *testing.T, src string) (*program.Program, program.Database, *atom.Store) {
	t.Helper()
	st := atom.NewStore(term.NewStore())
	prog, db, _, err := program.CompileText(src, st)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return prog, db, st
}

func fact(t *testing.T, st *atom.Store, pred string, args ...string) atom.AtomID {
	t.Helper()
	p, err := st.Pred(pred, len(args))
	if err != nil {
		t.Fatal(err)
	}
	ts := make([]term.ID, len(args))
	for i, a := range args {
		ts[i] = st.Terms.Const(a)
	}
	return st.Atom(p, ts)
}

func TestDiffIsSetLevel(t *testing.T) {
	oldDB := program.Database{1, 2, 2, 3}
	newDB := program.Database{2, 3, 3, 4, 4}
	added, removed := Diff(oldDB, newDB)
	if len(added) != 1 || added[0] != 4 {
		t.Errorf("added = %v, want [4]", added)
	}
	if len(removed) != 1 || removed[0] != 1 {
		t.Errorf("removed = %v, want [1]", removed)
	}
	// Multiplicity changes alone are no change.
	if a, r := Diff(program.Database{5, 5}, program.Database{5}); len(a)+len(r) != 0 {
		t.Errorf("multiplicity-only diff = %v/%v, want empty", a, r)
	}
}

// TestRebaseMixedMatchesScratch drives a mixed delta (retraction +
// addition in one rebase) and cross-checks the chase universe, grounding,
// and seeds-driven incremental model against from-scratch evaluation.
func TestRebaseMixedMatchesScratch(t *testing.T) {
	prog, db, st := compile(t, `
move(a,b). move(b,c). move(c,d). move(d,e).
move(X,Y), not win(Y) -> win(X).
`)
	copts := chase.Options{MaxDepth: 8, MaxAtoms: 100_000}
	res := chase.Run(prog, db, copts)
	gp := ground.FromChase(res)
	prev := ground.AlternatingFixpoint(gp)

	removedAtom := fact(t, st, "move", "b", "c")
	addedAtom := fact(t, st, "move", "c", "a")
	var newDB program.Database
	for _, f := range db {
		if f != removedAtom {
			newDB = append(newDB, f)
		}
	}
	newDB = append(newDB, addedAtom)

	added, removed := Diff(db, newDB)
	reb, ok := Rebase(res, gp, prog, newDB, added, removed)
	if !ok {
		t.Fatal("Rebase refused a non-truncated chase")
	}
	scratch := chase.Run(prog, newDB, copts)
	if len(reb.Chase.Atoms) != len(scratch.Atoms) || len(reb.Chase.Instances) != len(scratch.Instances) {
		t.Fatalf("rebased chase %d/%d atoms/instances, scratch %d/%d",
			len(reb.Chase.Atoms), len(reb.Chase.Instances), len(scratch.Atoms), len(scratch.Instances))
	}
	gm := ground.IncrementalModel(reb.GP, prev, reb.Seeds, ground.AlternatingFixpoint)
	want := ground.AlternatingFixpoint(ground.FromChase(scratch))
	for _, g := range scratch.Atoms {
		if gv, wv := gm.TruthOfGlobal(g), want.TruthOfGlobal(g); gv != wv {
			t.Errorf("truth(%s) = %v, want %v", st.String(g), gv, wv)
		}
	}
}

// TestRebaseIDBFactAddition: asserting a derived IDB atom as an EDB fact
// must give it a fact rule even though suffix regrounding cannot see it.
func TestRebaseIDBFactAddition(t *testing.T) {
	prog, db, st := compile(t, `
e(a,b). s(a).
s(X) -> r(X).
r(X), e(X,Y) -> r(Y).
not r(X), probe(X) -> lonely(X).
probe(b).
`)
	copts := chase.Options{MaxDepth: 8, MaxAtoms: 100_000}
	res := chase.Run(prog, db, copts)
	gp := ground.FromChase(res)
	prev := ground.AlternatingFixpoint(gp)

	rb := fact(t, st, "r", "b")
	if res.Depth(rb) <= 0 {
		t.Fatalf("r(b) depth = %d, want > 0 (IDB-derived)", res.Depth(rb))
	}
	newDB := append(db[:len(db):len(db)], rb)
	added, removed := Diff(db, newDB)
	reb, ok := Rebase(res, gp, prog, newDB, added, removed)
	if !ok {
		t.Fatal("Rebase refused")
	}
	// The grounding must now hold a bodyless rule for r(b).
	li := reb.GP.Local(rb)
	hasFact := false
	for _, ri := range reb.GP.RulesFor(li) {
		r := &reb.GP.Rules[ri]
		if len(reb.GP.Pos(r)) == 0 && len(reb.GP.Neg(r)) == 0 {
			hasFact = true
		}
	}
	if !hasFact {
		t.Error("re-asserted IDB atom has no fact rule in the rebased grounding")
	}
	gm := ground.IncrementalModel(reb.GP, prev, reb.Seeds, ground.AlternatingFixpoint)
	scratch := ground.AlternatingFixpoint(ground.FromChase(chase.Run(prog, newDB, copts)))
	for _, g := range reb.Chase.Atoms {
		if gv, wv := gm.TruthOfGlobal(g), scratch.TruthOfGlobal(g); gv != wv {
			t.Errorf("truth(%s) = %v, want %v", st.String(g), gv, wv)
		}
	}
}

func TestRebaseRefusesTruncated(t *testing.T) {
	prog, db, st := compile(t, "seed(c).\nseed(X) -> seed(Y).")
	res := chase.Run(prog, db, chase.Options{MaxDepth: 10, MaxAtoms: 5})
	if !res.Truncated {
		t.Fatal("expected truncation")
	}
	a := fact(t, st, "seed", "d")
	if _, ok := Rebase(res, ground.FromChase(res), prog, append(db, a), []atom.AtomID{a}, nil); ok {
		t.Error("Rebase accepted a truncated chase")
	}
}
