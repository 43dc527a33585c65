package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/atom"
)

// TestPatchedMatcherListsEqualRebuild: after every step of random
// add/retract scripts, the matcher lists a rebased model patches from its
// predecessor's equal, order included, the lists a full build over the
// same model writes, and a predicate whose list did not change shares
// its predecessor's (with whatever argument indexes it built).
func TestPatchedMatcherListsEqualRebuild(t *testing.T) {
	const src = `
move(a,b). move(b,c). move(c,a). move(c,d).
r(0,0,1). p(0,0).
move(X,Y), not win(Y) -> win(X).
r(X,Y,Z) -> r(X,Z,W).
r(X,Y,Z), p(X,Y), not q(Z) -> p(X,Z).
r(X,Y,Z), not p(X,Y) -> q(Z).
r(X,Y,Z), not p(X,Z) -> s(X).
p(X,Y), not s(X) -> t(X).
`
	rng := rand.New(rand.NewSource(11))
	consts := []string{"a", "b", "c", "d", "e", "0", "1", "2"}
	pick := func() string { return consts[rng.Intn(len(consts))] }
	patched := 0
	for _, depth := range []int{3, 5} {
		prog, db, _, st := compile(t, src)
		opts := Options{}.withDefaults()
		m := NewEngine(prog, db, opts).EvaluateAtDepth(depth)
		m.Precompute()
		for step := 0; step < 60; step++ {
			var op dbOp
			switch {
			case len(db) > 1 && rng.Intn(2) == 0:
				f := db[rng.Intn(len(db))]
				op = opDel(st.PredName(st.PredOf(f)), argNames(st, f)...)
			case rng.Intn(2) == 0:
				op = opAdd("move", pick(), pick())
			default:
				x := pick()
				op = opAdd("r", x, x, pick())
			}
			db = applyDBOp(t, st, db, op)
			next := RebaseModel(m, prog, opts, depth, db)
			if next == m {
				continue
			}
			wasPatched := next.patch != nil
			if wasPatched {
				patched++
			}
			next.Precompute()
			fresh := &Model{Chase: next.Chase, GP: next.GP, GM: next.GM, Depth: next.Depth,
				Exact: next.Exact, UsableDepth: next.UsableDepth}
			fresh.buildIndexes()
			var builds int64
			for p := range max(len(next.preds), len(fresh.preds)) {
				got, want := listAt(next.preds, p), listAt(fresh.preds, p)
				if !slices.Equal(got, want) {
					t.Fatalf("depth %d step %d (%v): predicate %s: patched %d atoms, rebuilt %d",
						depth, step, op, st.PredName(atom.PredID(p)), len(got), len(want))
				}
				// A reader bound the first argument of every list of m, so a
				// patched list has that index built already, equal to a fresh one.
				if len(got) > 0 {
					g, w := next.preds[p].index(st, 0, &builds), fresh.preds[p].index(st, 0, &builds)
					if !slices.Equal(g.sorted, w.sorted) || !slices.Equal(g.start, w.start) || g.lo != w.lo {
						t.Fatalf("depth %d step %d: predicate %s: argument index differs from a rebuild", depth, step, st.PredName(atom.PredID(p)))
					}
				}
				if wasPatched && p < len(m.preds) && m.preds[p] != nil && slices.Equal(got, listAt(m.preds, p)) && next.preds[p] != m.preds[p] {
					t.Fatalf("depth %d step %d: unchanged predicate %s did not share its list", depth, step, st.PredName(atom.PredID(p)))
				}
			}
			if want := NewEngine(prog, db, opts).EvaluateAtDepth(depth); len(want.Chase.Atoms) != len(next.Chase.Atoms) {
				t.Fatalf("depth %d step %d: %d atoms, from scratch %d", depth, step, len(next.Chase.Atoms), len(want.Chase.Atoms))
			}
			for _, pi := range next.preds {
				if pi != nil {
					pi.index(st, 0, &builds)
				}
			}
			m = next
		}
	}
	if patched == 0 {
		t.Fatal("no rebased model patched its lists")
	}
}

// argNames renders the arguments of ground atom a.
func argNames(st *atom.Store, a atom.AtomID) []string {
	var out []string
	for _, t := range st.Args(a) {
		out = append(out, st.Terms.String(t))
	}
	return out
}

func listAt(preds []*predIndex, p int) []atom.AtomID {
	if p >= len(preds) || preds[p] == nil {
		return nil
	}
	return preds[p].atoms
}
