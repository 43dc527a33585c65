package ground

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/atom"
	"repro/internal/chase"
	"repro/internal/program"
	"repro/internal/term"
	"repro/internal/trace"
)

var solvers = map[string]func(*Program) *Model{
	"alternating":    AlternatingFixpoint,
	"unfounded-sets": UnfoundedIteration,
	"forward-proofs": ForwardProofIteration,
	"remainder":      Remainder,
}

func internFact(t *testing.T, st *atom.Store, pred string, args ...string) atom.AtomID {
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

// checkSameTruth compares two models over (possibly differently indexed)
// chase groundings on every global atom of either universe.
func checkSameTruth(t *testing.T, st *atom.Store, got, want *Model) {
	t.Helper()
	for _, g := range want.Prog.Atoms {
		if gv, wv := got.TruthOfGlobal(g), want.TruthOfGlobal(g); gv != wv {
			t.Errorf("truth(%s) = %v, want %v", st.String(g), gv, wv)
		}
	}
	for _, g := range got.Prog.Atoms {
		if gv, wv := got.TruthOfGlobal(g), want.TruthOfGlobal(g); gv != wv {
			t.Errorf("truth(%s) = %v, want %v", st.String(g), gv, wv)
		}
	}
}

// TestIncrementalModelAddition: warm-starting over an ExtendFromChase
// suffix agrees with from-scratch solving under all four algorithms.
func TestIncrementalModelAddition(t *testing.T) {
	for name, solve := range solvers {
		t.Run(name, func(t *testing.T) {
			prog, db, st := compileChase(t, `
move(a,b). move(b,c).
move(X,Y), not win(Y) -> win(X).
`)
			opts := chase.Options{MaxDepth: 8, MaxAtoms: 10_000}
			res := chase.Run(prog, db, opts)
			gp := FromChase(res)
			prev := solve(gp)

			added := internFact(t, st, "move", "c", "a")
			db2 := append(db, added)
			res2 := res.ExtendDB(prog, db2, []atom.AtomID{added})
			gp2 := ExtendFromChase(gp, res2)

			seeds := []atom.AtomID{added}
			for rec := len(res.Ground); rec < len(res2.Ground); rec++ {
				seeds = append(seeds, res2.Head(int32(rec)))
			}
			got := IncrementalModel(gp2, prev, seeds, solve)
			want := solve(gp2)
			checkSameTruth(t, st, got, want)
		})
	}
}

// TestIncrementalModelRetraction: warm-starting over a replayed
// retraction agrees with from-scratch solving under all four algorithms.
func TestIncrementalModelRetraction(t *testing.T) {
	for name, solve := range solvers {
		t.Run(name, func(t *testing.T) {
			prog, db, st := compileChase(t, `
move(a,b). move(b,c). move(c,a). move(c,d).
p(x). p(y).
move(X,Y), not win(Y) -> win(X).
p(X), not q(X) -> q2(X).
`)
			opts := chase.Options{MaxDepth: 8, MaxAtoms: 10_000}
			res := chase.Run(prog, db, opts)
			gp := FromChase(res)
			prev := solve(gp)

			removed := internFact(t, st, "move", "c", "a")
			var db2 program.Database
			for _, f := range db {
				if f != removed {
					db2 = append(db2, f)
				}
			}
			res2, dead := res.Retract(prog, db2)
			gp2 := FromChase(res2)

			seeds := []atom.AtomID{removed}
			for _, ci := range dead {
				seeds = append(seeds, res.Head(ci))
			}
			got := IncrementalModel(gp2, prev, seeds, solve)
			want := solve(gp2)
			checkSameTruth(t, st, got, want)
		})
	}
}

// TestIncrementalModelEmptySeeds: with nothing changed, the previous
// truths carry over verbatim.
func TestIncrementalModelEmptySeeds(t *testing.T) {
	prog, db, st := compileChase(t, example4Src)
	res := chase.Run(prog, db, chase.Options{MaxDepth: 5, MaxAtoms: 10_000})
	gp := FromChase(res)
	prev := AlternatingFixpoint(gp)
	got := IncrementalModel(gp, prev, nil, AlternatingFixpoint)
	checkSameTruth(t, st, got, prev)
}

// TestIncrementalModelUndefinedBoundary: an unaffected undefined atom on
// the boundary of the affected cone must stay undefined and propagate
// undefinedness into the re-solved region.
func TestIncrementalModelUndefinedBoundary(t *testing.T) {
	for name, solve := range solvers {
		t.Run(name, func(t *testing.T) {
			// u is undefined via the 2-cycle; c depends on u and on the
			// mutable fact b.
			prog, db, st := compileChase(t, `
m(a,b). m(b,a). base(z).
m(X,Y), not win(Y) -> win(X).
base(X), extra(X), not win(a) -> c(X).
`)
			res := chase.Run(prog, db, chase.Options{MaxDepth: 8, MaxAtoms: 10_000})
			gp := FromChase(res)
			prev := solve(gp)

			added := internFact(t, st, "extra", "z")
			db2 := append(db, added)
			res2 := res.ExtendDB(prog, db2, []atom.AtomID{added})
			gp2 := ExtendFromChase(gp, res2)
			seeds := []atom.AtomID{added}
			for rec := len(res.Ground); rec < len(res2.Ground); rec++ {
				seeds = append(seeds, res2.Head(int32(rec)))
			}
			got := IncrementalModel(gp2, prev, seeds, solve)
			want := solve(gp2)
			checkSameTruth(t, st, got, want)
			c := internFact(t, st, "c", "z")
			if tv := got.TruthOfGlobal(c); tv != Undefined {
				t.Errorf("c(z) = %v, want undefined (propagated through boundary)", tv)
			}
		})
	}
}

// TestAssertedIDBAtomGetsFactRecord: asserting an already-derived IDB
// atom as a fact writes a fact record for it, which the extended
// grounding sees among the atom's rules, without disturbing the previous
// program.
func TestAssertedIDBAtomGetsFactRecord(t *testing.T) {
	prog, db, st := compileChase(t, `
e(a,b). s(a).
s(X) -> r(X).
r(X), e(X,Y) -> r(Y).
`)
	res := chase.Run(prog, db, chase.Options{MaxDepth: 8, MaxAtoms: 10_000})
	gp := FromChase(res)
	rb := internFact(t, st, "r", "b")
	lb := gp.Local(rb)
	if lb < 0 {
		t.Fatal("r(b) not derived")
	}
	prevRules, prevFor := len(gp.Rules), len(gp.RulesFor(lb))
	gp2 := ExtendFromChase(gp, res.ExtendDB(prog, append(db, rb), []atom.AtomID{rb}))
	if len(gp.Rules) != prevRules || len(gp.RulesFor(lb)) != prevFor {
		t.Fatal("the extension changed the previous program")
	}
	if len(gp2.Rules) != prevRules+1 {
		t.Fatalf("rules = %d, want %d", len(gp2.Rules), prevRules+1)
	}
	nr := &gp2.Rules[prevRules]
	if nr.Head != gp2.Local(rb) || len(gp2.Pos(nr)) != 0 || len(gp2.Neg(nr)) != 0 {
		t.Fatalf("new rule = %+v, want bodyless fact for r(b)", nr)
	}
	if !slices.Contains(gp2.RulesFor(lb), int32(prevRules)) {
		t.Error("the fact record is missing from the head index")
	}
}

// TestConeWalkStopsAtQuarter: a warm start whose cone covers more than
// a quarter of the universe falls back to the full solve, and its cone
// walk stops after marking at most ⌈n/4⌉+1 atoms — whether one seed
// reaches that far (an edge added at the end of a win-move chain flips
// every win atom) or the seeds are every atom. The fallback still equals
// the full solve.
func TestConeWalkStopsAtQuarter(t *testing.T) {
	var src strings.Builder
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&src, "move(n%d,n%d).\n", i, i+1)
	}
	src.WriteString("move(X,Y), not win(Y) -> win(X).\n")
	prog, db, st := compileChase(t, src.String())
	res := chase.Run(prog, db, chase.Options{MaxDepth: 8, MaxAtoms: 10_000})
	gp := FromChase(res)
	prev := AlternatingFixpoint(gp)
	added := internFact(t, st, "move", "n40", "n41")
	res2 := res.ExtendDB(prog, append(db, added), []atom.AtomID{added})
	gp2 := ExtendFromChase(gp, res2)
	var seeds []atom.AtomID
	for rec := len(res.Ground); rec < len(res2.Ground); rec++ {
		seeds = append(seeds, res2.Head(int32(rec)))
	}
	n := gp2.NumAtoms()
	want := AlternatingFixpoint(gp2)
	for name, seeds := range map[string][]atom.AtomID{"added edge": seeds, "every atom": gp2.Atoms} {
		t.Run(name, func(t *testing.T) {
			tr := trace.New("warm-solve")
			got := IncrementalModelTraced(gp2, prev, seeds, AlternatingFixpoint, tr)
			tr.End()
			if marked, most := tr.Counter("affected_atoms"), int64((n+3)/4+1); marked > most {
				t.Errorf("the cone walk marked %d of %d atoms, want at most %d", marked, n, most)
			}
			fell := false
			for _, c := range tr.Trace().Children {
				fell = fell || c.Name == "cold-solve"
			}
			if !fell {
				t.Errorf("no fallback to the full solve: %s", tr.Trace().Format())
			}
			checkSameTruth(t, st, got, want)
		})
	}
}

// TestForwardConeMatchesReachability: the cone walked over the
// occurrence lists — including the records past a view's lists, reached
// through the chase's links — equals forward reachability in the
// dependency graph built directly from the rules, on random programs.
func TestForwardConeMatchesReachability(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	linked := 0
	for trial := 0; trial < 40; trial++ {
		const nodes = 12
		var src strings.Builder
		src.WriteString(`s(X) -> p(X).
e(X,Y), p(X) -> p(Y).
e(X,Y), not q(Y) -> q(X).
e(X,Y), p(Y), not p(X) -> r(X).
`)
		edge := func() string { return fmt.Sprintf("e(n%d,n%d).\n", rng.Intn(nodes), rng.Intn(nodes)) }
		for i := 0; i < 2*nodes; i++ {
			src.WriteString(edge())
		}
		fmt.Fprintf(&src, "s(n%d).\n", rng.Intn(nodes))
		prog, db, st := compileChase(t, src.String())
		res := chase.Run(prog, db, chase.Options{MaxDepth: 6, MaxAtoms: 10_000})
		gp := FromChase(res)
		u, v := rng.Intn(nodes), rng.Intn(nodes)
		added := internFact(t, st, "e", fmt.Sprintf("n%d", u), fmt.Sprintf("n%d", v))
		gp2 := ExtendFromChase(gp, res.ExtendDB(prog, append(db, added), []atom.AtomID{added}))
		for _, p := range []*Program{gp, gp2} {
			succ := make([][]int32, p.NumAtoms())
			for ri := range p.Rules {
				r := &p.Rules[ri]
				for _, b := range p.body[r.Off:r.End] {
					succ[b] = append(succ[b], r.Head)
				}
			}
			seeds := []int32{int32(rng.Intn(p.NumAtoms())), int32(rng.Intn(p.NumAtoms()))}
			want := make([]bool, p.NumAtoms())
			queue := append([]int32(nil), seeds...)
			for _, a := range seeds {
				want[a] = true
			}
			for len(queue) > 0 {
				a := queue[0]
				queue = queue[1:]
				for _, h := range succ[a] {
					if !want[h] {
						want[h] = true
						queue = append(queue, h)
					}
				}
			}
			got, cone := forwardCone(p, seeds, p.NumAtoms(), nil)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d: cone %v, reachability %v", trial, got, want)
			}
			if n := len(cone); n != len(slices.DeleteFunc(slices.Clone(want), func(b bool) bool { return !b })) {
				t.Fatalf("trial %d: cone lists %d atoms", trial, n)
			}
		}
		if gp2.occ.rules < len(gp2.Rules) {
			linked++
		}
	}
	if linked < 10 {
		t.Fatalf("only %d extensions kept their parent's lists; the links go untested", linked)
	}
}
