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

// TestRetractFromChaseListsMatchRebuild: along a script of retractions
// and additions, every view — lists read through the retractions'
// renumbering, rules past them reached through the chase's links —
// answers, for every atom, the same head and body occurrences as lists
// rebuilt from scratch, and a warm solve over it equals a cold one.
func TestRetractFromChaseListsMatchRebuild(t *testing.T) {
	var b strings.Builder
	b.WriteString(example4Src + "move(X,Y), not win(Y) -> win(X).\n")
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&b, "move(n%d,n%d).\n", i, i+1)
	}
	prog, db, st := compileChase(t, b.String())
	composed := 0
	opts := chase.Options{MaxDepth: 4, MaxAtoms: 100_000}
	res := chase.Run(prog, db, opts)
	gp := FromChase(res)
	sorted := func(xs []int32) []int32 { xs = slices.Clone(xs); slices.Sort(xs); return xs }
	for step := 0; step < 60; step++ {
		f := db[(step*7)%len(db)]
		if step%6 == 4 {
			f = db[len(db)-1-step%4] // a recent addition: its slots are past the lists
		}
		var ret *chase.Retraction
		var next *chase.Result
		if step%3 == 2 {
			db = append(db[:len(db):len(db)], f) // a duplicate: set-level no-op
			extra, _ := st.Pred("move", 2)
			a := st.Atom(extra, []term.ID{st.Terms.Const(fmt.Sprint("x", step)), st.Terms.Const("n0")})
			db = append(db, a)
			next = res.ExtendDB(prog, db, []atom.AtomID{a})
			gp = ExtendFromChase(gp, next)
		} else {
			var rest program.Database
			for _, a := range db {
				if a != f {
					rest = append(rest, a)
				}
			}
			db = rest
			next, ret = res.RetractCancel(prog, db, []atom.AtomID{f}, nil)
			lazy := gp.remap != nil && gp.full.Load() == nil
			gp = RetractFromChase(gp, next, ret.Remap)
			if lazy && gp.remap != nil {
				composed++
			}
		}
		res = next
		full := FromChase(res)
		for a := int32(0); int(a) < full.NumAtoms(); a++ {
			if got, want := sorted(gp.RulesFor(a)), full.occ.heads(a); !slices.Equal(got, want) {
				t.Fatalf("step %d: rules for %s: %v, rebuilt %v", step, st.String(full.Atoms[a]), got, want)
			}
			got := gp.mapped(gp.mapped(nil, gp.occ.pos(a)), gp.occ.neg(a))
			if gp.from < len(gp.Rules) {
				got = gp.res.RecordsSince(a, gp.from, true, got)
			}
			want := append(slices.Clone(full.occ.pos(a)), full.occ.neg(a)...)
			if got, want := sorted(got), sorted(want); !slices.Equal(got, want) {
				t.Fatalf("step %d: body occurrences of %s: %v, rebuilt %v", step, st.String(full.Atoms[a]), got, want)
			}
		}
		// A whole-program solve builds the view's full index, which the
		// next view would start from; solve every tenth step only.
		if step%10 == 9 && !AlternatingFixpoint(gp).Equal(AlternatingFixpoint(full)) {
			t.Fatalf("step %d: the view's model differs from the rebuilt one's", step)
		}
	}
	if composed == 0 {
		t.Fatal("no retraction read its lists through two renumberings")
	}
}
