package ground

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/atom"
	"repro/internal/chase"
	"repro/internal/program"
	"repro/internal/term"
)

const example4Src = `
r(0,0,1).
p(0,0).
r(X,Y,Z) -> r(X,Z,W).
r(X,Y,Z), p(X,Y), not q(Z) -> p(X,Z).
r(X,Y,Z), not p(X,Y) -> q(Z).
r(X,Y,Z), not p(X,Z) -> s(X).
p(X,Y), not s(X) -> t(X).
`

func compileChase(t *testing.T, src string) (*program.Program, program.Database, *atom.Store) {
	t.Helper()
	st := atom.NewStore(term.NewStore())
	prog, db, _, err := program.CompileText(src, st)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return prog, db, st
}

// TestExtendFromChaseKeepsLocalIDsStable: every atom of the previous
// grounding keeps its local index, and the appended grounding agrees with
// a from-scratch FromChase of the same chase on every global atom's truth.
func TestExtendFromChaseKeepsLocalIDsStable(t *testing.T) {
	prog, db, st := compileChase(t, example4Src)
	res := chase.Run(prog, db, chase.Options{MaxDepth: 3, MaxAtoms: 10_000})
	gp := FromChase(res)

	for _, d := range []int{5, 8} {
		res = res.Extend(prog, d)
		next := ExtendFromChase(gp, res)

		// Local IDs of the previous grounding survive.
		for i, a := range gp.Atoms {
			if got := next.Local(a); got != int32(i) {
				t.Fatalf("depth %d: local(%s) = %d, want %d", d, st.String(a), got, i)
			}
			if next.Atoms[i] != a {
				t.Fatalf("depth %d: Atoms[%d] changed", d, i)
			}
		}
		// The previous grounding itself is untouched.
		if len(gp.Atoms) > len(next.Atoms) || len(gp.Rules) > len(next.Rules) {
			t.Fatalf("depth %d: extension shrank the program", d)
		}

		// Same three-valued model as regrounding from scratch, compared
		// over global atoms (local numbering may differ).
		scratch := FromChase(res)
		mNext := AlternatingFixpoint(next)
		mScratch := AlternatingFixpoint(scratch)
		if len(next.Atoms) != len(scratch.Atoms) {
			t.Fatalf("depth %d: universe %d vs %d", d, len(next.Atoms), len(scratch.Atoms))
		}
		for _, a := range scratch.Atoms {
			if got, want := mNext.TruthOfGlobal(a), mScratch.TruthOfGlobal(a); got != want {
				t.Errorf("depth %d: truth(%s) = %v, want %v", d, st.String(a), got, want)
			}
		}
		gp = next
	}
}

// programShape renders p's rules and per-atom rule lists, to check that
// a program stayed untouched.
func programShape(p *Program) string {
	var b strings.Builder
	for ri := range p.Rules {
		r := &p.Rules[ri]
		fmt.Fprintln(&b, r.Head, p.Pos(r), p.Neg(r))
	}
	for a := int32(0); int(a) < p.NumAtoms(); a++ {
		fmt.Fprintln(&b, a, slices.Sorted(slices.Values(p.RulesFor(a))))
	}
	return b.String()
}

// TestExtendFromChaseDoesNotAliasPrevIndexes: extending a grounding —
// twice from the same one, deeper and by a database addition, as a
// ladder and a writer do — must not write into the records, bodies or
// occurrence lists the previous program reads, and each extension must
// equal the grounding built from scratch.
func TestExtendFromChaseDoesNotAliasPrevIndexes(t *testing.T) {
	prog, db, st := compileChase(t, example4Src)
	res := chase.Run(prog, db, chase.Options{MaxDepth: 2, MaxAtoms: 10_000})
	gp := FromChase(res)
	before := programShape(gp)

	deeper := ExtendFromChase(gp, res.Extend(prog, 6))
	if len(deeper.Rules) <= len(gp.Rules) {
		t.Fatal("extension added no rules; test is vacuous")
	}
	r1 := internFact(t, st, "r", "0", "1", "1")
	grown := ExtendFromChase(gp, res.ExtendDB(prog, append(db, r1), []atom.AtomID{r1}))
	if len(grown.Rules) <= len(gp.Rules) {
		t.Fatal("database extension added no rules; test is vacuous")
	}
	if programShape(gp) != before {
		t.Fatal("an extension wrote into the previous program")
	}
	for _, ext := range []*Program{deeper, grown} {
		scratch := FromChase(ext.res)
		if got, want := programShape(ext), programShape(scratch); got != want {
			t.Errorf("extension differs from its from-scratch grounding:\n%s\nwant\n%s", got, want)
		}
	}
}

// TestExtendFromChaseFallsBack: a prev not built from a chase (or nil)
// falls back to a full FromChase.
func TestExtendFromChaseFallsBack(t *testing.T) {
	prog, db, _ := compileChase(t, example4Src)
	res := chase.Run(prog, db, chase.Options{MaxDepth: 3, MaxAtoms: 10_000})
	if got := ExtendFromChase(nil, res); len(got.Atoms) != len(FromChase(res).Atoms) {
		t.Error("nil prev did not fall back to FromChase")
	}
	local := New(2, []Rule{{Head: 0, Pos: []int32{1}}})
	if got := ExtendFromChase(local, res); len(got.Atoms) != len(FromChase(res).Atoms) {
		t.Error("purely local prev did not fall back to FromChase")
	}
}
