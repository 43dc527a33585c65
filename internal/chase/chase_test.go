package chase

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/atom"
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

const example4 = `
r(0,0,1).
p(0,0).
r(X,Y,Z) -> r(X,Z,W).
r(X,Y,Z), p(X,Y), not q(Z) -> p(X,Z).
r(X,Y,Z), not p(X,Y) -> q(Z).
r(X,Y,Z), not p(X,Z) -> s(X).
p(X,Y), not s(X) -> t(X).
`

func TestChaseDerivesExample6Universe(t *testing.T) {
	prog, db, st := compile(t, example4)
	res := Run(prog, db, Options{MaxDepth: 3, MaxAtoms: 10_000})

	// Example 6's F+(P) to depth 3 contains the R-chain, P-chain, the
	// Q atoms, S(0), and T(0).
	want := []string{
		"r(0,0,1)", "p(0,0)",
		"p(0,1)", "q(1)", "s(0)", "t(0)",
	}
	derived := map[string]bool{}
	for _, a := range res.Atoms {
		derived[st.String(a)] = true
	}
	for _, w := range want {
		if !derived[w] {
			t.Errorf("atom %s not derived; universe: %v", w, keys(derived))
		}
	}
	// Atoms beyond the depth bound must not appear: the chain member at
	// depth 4 is absent.
	stats := res.ComputeStats()
	if stats.MaxDepth > 3 {
		t.Errorf("MaxDepth = %d, want ≤ 3", stats.MaxDepth)
	}
}

func keys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestDepthsAndLevels(t *testing.T) {
	prog, db, st := compile(t, example4)
	res := Run(prog, db, Options{MaxDepth: 4, MaxAtoms: 10_000})

	c0 := st.Terms.Const("0")
	c1 := st.Terms.Const("1")
	rp, _ := st.LookupPred("r")
	pp, _ := st.LookupPred("p")

	r001, _ := st.Lookup(rp, []term.ID{c0, c0, c1})
	if res.Depth(r001) != 0 || res.Level(r001) != 0 {
		t.Errorf("database atom depth/level = %d/%d, want 0/0",
			res.Depth(r001), res.Level(r001))
	}
	p01, ok := st.Lookup(pp, []term.ID{c0, c1})
	if !ok || !res.Derived(p01) {
		t.Fatalf("p(0,1) not derived")
	}
	if res.Depth(p01) != 1 {
		t.Errorf("depth(p(0,1)) = %d, want 1", res.Depth(p01))
	}
}

func TestInstanceExtraction(t *testing.T) {
	prog, db, st := compile(t, example4)
	res := Run(prog, db, Options{MaxDepth: 2, MaxAtoms: 10_000})

	// Each instance must be guarded by its first positive atom and be
	// fully ground.
	for _, rec := range res.Instances {
		in := res.Record(rec)
		if g := in.Rule.GuardAtom(); len(in.Pos) == 0 || st.PredOf(in.Pos[0]) != g.Pred {
			t.Fatalf("instance of rule %d not guarded by its first positive atom", in.Rule.Idx)
		}
		if len(in.Pos) != len(in.Rule.PosBody) || len(in.Neg) != len(in.Rule.NegBody) {
			t.Errorf("instance body sizes do not match rule %d", in.Rule.Idx)
		}
	}
	// The rule p(X,Y), not s(X) -> t(X) instance from p(0,0) must carry
	// the negative body atom s(0).
	sp, _ := st.LookupPred("s")
	tp, _ := st.LookupPred("t")
	c0 := st.Terms.Const("0")
	s0, _ := st.Lookup(sp, []term.ID{c0})
	t0, _ := st.Lookup(tp, []term.ID{c0})
	found := false
	for _, rec := range res.Instances {
		in := res.Record(rec)
		if in.Head == t0 && len(in.Neg) == 1 && in.Neg[0] == s0 {
			found = true
		}
	}
	if !found {
		t.Errorf("t(0) instance with negative hypothesis s(0) missing")
	}
}

func TestInstanceDeduplication(t *testing.T) {
	// Two facts guard the same rule; every (rule, guard atom) pair fires
	// exactly once even though s(0) labels several forest nodes.
	prog, db, _ := compile(t, example4)
	res := Run(prog, db, Options{MaxDepth: 6, MaxAtoms: 10_000})
	seen := map[[2]int32]bool{}
	for _, rec := range res.Instances {
		in := res.Record(rec)
		key := [2]int32{int32(in.Rule.Idx), int32(in.Pos[0])}
		if seen[key] {
			t.Fatalf("duplicate instance for rule %d guard %d", in.Rule.Idx, in.Pos[0])
		}
		seen[key] = true
	}
}

func TestSideAtomWaiting(t *testing.T) {
	// The side atom q(a) for the second rule only appears after rule 1
	// fires, so the (rule, guard) application must be retried: this
	// exercises the waiter queue.
	src := `
base(a).
base(X) -> q(X).
base(X), q(X) -> r(X).
`
	prog, db, st := compile(t, src)
	res := Run(prog, db, Options{MaxDepth: 4, MaxAtoms: 1000})
	rp, _ := st.LookupPred("r")
	ca := st.Terms.Const("a")
	ra, ok := st.Lookup(rp, []term.ID{ca})
	if !ok || !res.Derived(ra) {
		t.Fatalf("r(a) not derived despite side atom becoming available")
	}
}

func TestSideAtomNeverAvailable(t *testing.T) {
	src := `
base(a).
base(X), missing(X) -> r(X).
missing(b).
`
	prog, db, st := compile(t, src)
	res := Run(prog, db, Options{MaxDepth: 4, MaxAtoms: 1000})
	rp, _ := st.LookupPred("r")
	ca := st.Terms.Const("a")
	if a, ok := st.Lookup(rp, []term.ID{ca}); ok && res.Derived(a) {
		t.Errorf("r(a) derived despite missing(a) being absent")
	}
}

func TestMaxAtomsTruncation(t *testing.T) {
	prog, db, _ := compile(t, "seed(c).\nseed(X) -> seed(Y).")
	res := Run(prog, db, Options{MaxDepth: 1 << 20, MaxAtoms: 50})
	if !res.Truncated {
		t.Errorf("truncation flag not set")
	}
	if len(res.Atoms) > 60 {
		t.Errorf("chase overshot the atom cap: %d", len(res.Atoms))
	}
}

func TestChaseSaturatesOnFiniteProgram(t *testing.T) {
	prog, db, _ := compile(t, `
edge(a,b). edge(b,c). start(a).
start(X) -> reach(X).
reach(X), edge(X,Y) -> reach(Y).
`)
	res := Run(prog, db, Options{MaxDepth: 100, MaxAtoms: 10_000})
	stats := res.ComputeStats()
	if stats.Truncated {
		t.Errorf("finite chase truncated")
	}
	if stats.MaxDepth >= 100 {
		t.Errorf("finite chase hit the depth cap")
	}
	if stats.Atoms != 6 { // 3 facts + reach(a), reach(b), reach(c)
		t.Errorf("atoms = %d, want 6", stats.Atoms)
	}
}

func TestConstantsInRuleBodies(t *testing.T) {
	prog, db, st := compile(t, `
p(a, b). p(b, c).
p(a, X) -> special(X).
`)
	res := Run(prog, db, Options{MaxDepth: 3, MaxAtoms: 100})
	sp, _ := st.LookupPred("special")
	cb := st.Terms.Const("b")
	cc := st.Terms.Const("c")
	if a, ok := st.Lookup(sp, []term.ID{cb}); !ok || !res.Derived(a) {
		t.Errorf("special(b) not derived")
	}
	if a, ok := st.Lookup(sp, []term.ID{cc}); ok && res.Derived(a) {
		t.Errorf("special(c) derived despite guard constant mismatch")
	}
}

func TestForestMatchesExample6Shape(t *testing.T) {
	prog, db, _ := compile(t, example4)
	res := Run(prog, db, Options{MaxDepth: 3, MaxAtoms: 10_000})
	f := res.BuildForest(3, 1000)

	// Two roots: r(0,0,1) and p(0,0).
	if len(f.Roots) != 2 {
		t.Fatalf("roots = %d, want 2", len(f.Roots))
	}
	dump := f.Dump()
	// Example 6's figure: infinitely many S(0)-labeled nodes — at least
	// 3 within depth 3 — and T(0) both under p(0,0) and under p(0,1).
	if got := strings.Count(dump, "s(0)"); got < 3 {
		t.Errorf("forest shows %d s(0) nodes, want ≥ 3\n%s", got, dump)
	}
	if got := strings.Count(dump, "t(0)"); got < 2 {
		t.Errorf("forest shows %d t(0) nodes, want ≥ 2\n%s", got, dump)
	}
}

func TestForestNodeCap(t *testing.T) {
	prog, db, _ := compile(t, example4)
	res := Run(prog, db, Options{MaxDepth: 6, MaxAtoms: 10_000})
	f := res.BuildForest(6, 10)
	if !f.Truncated {
		t.Errorf("node cap not reported")
	}
	if len(f.Nodes) > 10 {
		t.Errorf("forest exceeded node cap: %d", len(f.Nodes))
	}
}

func TestNodesLabeled(t *testing.T) {
	prog, db, st := compile(t, example4)
	res := Run(prog, db, Options{MaxDepth: 3, MaxAtoms: 10_000})
	f := res.BuildForest(3, 1000)
	sp, _ := st.LookupPred("s")
	c0 := st.Terms.Const("0")
	s0, _ := st.Lookup(sp, []term.ID{c0})
	if got := len(f.NodesLabeled(s0)); got < 3 {
		t.Errorf("NodesLabeled(s(0)) = %d, want ≥ 3", got)
	}
}

// extendEqualsRun asserts that res (an Extend chain result) and a
// from-scratch Run at the same depth agree on the derived universe (with
// minimal depths) and on the deduplicated instance set.
func extendEqualsRun(t *testing.T, st *atom.Store, res, scratch *Result) {
	t.Helper()
	if len(res.Atoms) != len(scratch.Atoms) {
		t.Fatalf("universe size: extended %d, scratch %d", len(res.Atoms), len(scratch.Atoms))
	}
	for _, a := range scratch.Atoms {
		if !res.Derived(a) {
			t.Errorf("extended chase missing %s", st.String(a))
		} else if res.Depth(a) != scratch.Depth(a) {
			t.Errorf("depth(%s): extended %d, scratch %d",
				st.String(a), res.Depth(a), scratch.Depth(a))
		}
	}
	if len(res.Instances) != len(scratch.Instances) {
		t.Fatalf("instances: extended %d, scratch %d", len(res.Instances), len(scratch.Instances))
	}
	want := map[[2]int32]bool{}
	for _, rec := range scratch.Instances {
		in := scratch.Record(rec)
		want[[2]int32{int32(in.Rule.Idx), int32(in.Pos[0])}] = true
	}
	for _, rec := range res.Instances {
		in := res.Record(rec)
		if !want[[2]int32{int32(in.Rule.Idx), int32(in.Pos[0])}] {
			t.Errorf("extended chase has extra instance rule=%d guard=%s",
				in.Rule.Idx, st.String(in.Pos[0]))
		}
	}
}

func TestExtendMatchesRun(t *testing.T) {
	prog, db, st := compile(t, example4)
	res := Run(prog, db, Options{MaxDepth: 2, MaxAtoms: 10_000})
	for _, d := range []int{4, 6, 9} {
		res = res.Extend(prog, d)
		if res.Opts.MaxDepth != d {
			t.Fatalf("extended MaxDepth = %d, want %d", res.Opts.MaxDepth, d)
		}
		scratch := Run(prog, db, Options{MaxDepth: d, MaxAtoms: 10_000})
		extendEqualsRun(t, st, res, scratch)
	}
}

func TestExtendDoesNotMutateOriginal(t *testing.T) {
	prog, db, _ := compile(t, example4)
	res := Run(prog, db, Options{MaxDepth: 3, MaxAtoms: 10_000})
	atoms, insts := len(res.Atoms), len(res.Instances)
	depths := make([]int, atoms)
	for i, a := range res.Atoms {
		depths[i] = res.Depth(a)
	}
	ext := res.Extend(prog, 6)
	if ext == res {
		t.Fatal("Extend to a deeper bound returned the receiver")
	}
	if len(res.Atoms) != atoms || len(res.Instances) != insts {
		t.Fatalf("original grew: %d atoms %d instances", len(res.Atoms), len(res.Instances))
	}
	for i, a := range res.Atoms {
		if res.Depth(a) != depths[i] {
			t.Errorf("original depth of atom %d changed", a)
		}
	}
	if len(ext.Atoms) <= atoms {
		t.Errorf("extension derived nothing beyond depth 3")
	}
	if res.Opts.MaxDepth != 3 {
		t.Errorf("original depth bound changed to %d", res.Opts.MaxDepth)
	}
}

func TestExtendNoopAtSameOrShallowerDepth(t *testing.T) {
	prog, db, _ := compile(t, example4)
	res := Run(prog, db, Options{MaxDepth: 4, MaxAtoms: 10_000})
	if got := res.Extend(prog, 4); got != res {
		t.Error("Extend to the current depth did not return the receiver")
	}
	if got := res.Extend(prog, 2); got != res {
		t.Error("Extend to a shallower depth did not return the receiver")
	}
}

// TestExtendWakesParkedWaiters: a side atom becomes available only in the
// deeper extension, so an instance parked during the first run must fire
// during Extend — including the depth-decrease cascade it triggers.
func TestExtendWakesParkedWaiters(t *testing.T) {
	src := `
base(a).
d0(a).
d0(X) -> d1(X).
d1(X) -> d2(X).
d2(X) -> d3(X).
base(X), d3(X) -> late(X).
late(X) -> deep(X).
`
	prog, db, st := compile(t, src)
	res := Run(prog, db, Options{MaxDepth: 2, MaxAtoms: 1000})
	lp, _ := st.LookupPred("late")
	ca := st.Terms.Const("a")
	if a, ok := st.Lookup(lp, []term.ID{ca}); ok && res.Derived(a) {
		t.Fatalf("late(a) derived before its side atom d3(a) exists")
	}
	ext := res.Extend(prog, 6)
	scratch := Run(prog, db, Options{MaxDepth: 6, MaxAtoms: 1000})
	extendEqualsRun(t, st, ext, scratch)
	la, ok := st.Lookup(lp, []term.ID{ca})
	if !ok || !ext.Derived(la) {
		t.Fatalf("late(a) not derived after extension woke the parked waiter")
	}
	// late(a) hangs under the depth-0 guard base(a): depth 1 despite
	// firing last.
	if d := ext.Depth(la); d != 1 {
		t.Errorf("depth(late(a)) = %d, want 1", d)
	}
}

func TestExtendSaturatedChaseIsFree(t *testing.T) {
	prog, db, _ := compile(t, `
edge(a,b). edge(b,c). start(a).
start(X) -> reach(X).
reach(X), edge(X,Y) -> reach(Y).
`)
	res := Run(prog, db, Options{MaxDepth: 50, MaxAtoms: 10_000})
	ext := res.Extend(prog, 100)
	if len(ext.Atoms) != len(res.Atoms) || len(ext.Instances) != len(res.Instances) {
		t.Errorf("saturated extension changed the universe")
	}
	if ext.ComputeStats().MaxDepth != res.ComputeStats().MaxDepth {
		t.Errorf("saturated extension changed the depth profile")
	}
}

// TestComputeStatsExact: the statistics are kept as atoms are derived,
// so every continuation — deeper, grown, shrunk — must report exactly
// what a from-scratch chase of the same database and bound reports.
// Exactness and the saturation check of Apply read MaxDepth, so an
// over-estimate would be a correctness bug, not a cosmetic one.
func TestComputeStatsExact(t *testing.T) {
	prog, db, st := compile(t, example4+`
		e(a). e(b). e(c).
		e(X) -> f(X).
		f(X), not e(X) -> g(X).`)
	check := func(what string, got *Result) {
		t.Helper()
		want := Run(prog, got.DB, Options{MaxDepth: got.Opts.MaxDepth, MaxAtoms: 10_000})
		if g, w := got.ComputeStats(), want.ComputeStats(); g != w {
			t.Errorf("%s: stats %+v, from scratch %+v", what, g, w)
		}
		if g, w := fmt.Sprint(got.DepthProfile()), fmt.Sprint(want.DepthProfile()); g != w {
			t.Errorf("%s: depth profile %s, from scratch %s", what, g, w)
		}
	}
	res := Run(prog, db, Options{MaxDepth: 3, MaxAtoms: 10_000})
	check("run", res)
	check("extend", res.Extend(prog, 6))
	qa := mkfact(t, st, "e", "a")
	var smaller program.Database
	for _, a := range db {
		if a != qa {
			smaller = append(smaller, a)
		}
	}
	shrunk, _ := res.Retract(prog, smaller)
	check("retract", shrunk)
	check("retract+extend", shrunk.Extend(prog, 5))
	grown := shrunk.ExtendDB(prog, db, []atom.AtomID{qa})
	check("extend-db", grown)
	// An IDB atom asserted as a fact drops to depth 0.
	ra := mkfact(t, st, "f", "a")
	check("assert-idb", grown.ExtendDB(prog, append(db[:len(db):len(db)], ra), []atom.AtomID{ra}))
}

func TestStatsString(t *testing.T) {
	prog, db, _ := compile(t, "p(a).")
	res := Run(prog, db, Options{MaxDepth: 2})
	if s := res.ComputeStats().String(); !strings.Contains(s, "atoms=1") {
		t.Errorf("stats string: %s", s)
	}
}

// TestLevelExceedsDepth: a node's derivation level (when it enters F_i,
// §2.5) can exceed its forest depth (distance from a root) when a side
// atom becomes available late — the distinction Example 9 turns on
// (levelP(v) "is in general different from the depth of v").
func TestLevelExceedsDepth(t *testing.T) {
	src := `
a(x).
d0(x).
d0(X) -> d1(X).
d1(X) -> d2(X).
d2(X) -> d3(X).
a(X), d3(X) -> e(X).
`
	prog, db, st := compile(t, src)
	res := Run(prog, db, Options{MaxDepth: 8, MaxAtoms: 1000})
	ep, _ := st.LookupPred("e")
	cx := st.Terms.Const("x")
	ex, ok := st.Lookup(ep, []term.ID{cx})
	if !ok || !res.Derived(ex) {
		t.Fatalf("e(x) not derived")
	}
	// e(x) hangs under the guard a(x) (depth 0), so its depth is 1 — but
	// it can only fire after d3(x) (level 3), so its level is 4.
	if d := res.Depth(ex); d != 1 {
		t.Errorf("depth(e(x)) = %d, want 1", d)
	}
	if l := res.Level(ex); l != 4 {
		t.Errorf("level(e(x)) = %d, want 4", l)
	}
}

// NodesLabeled returns the node ids labeled by atom a.
func (f *Forest) NodesLabeled(a atom.AtomID) []int32 {
	var out []int32
	for i := range f.Nodes {
		if f.Nodes[i].Atom == a {
			out = append(out, int32(i))
		}
	}
	return out
}

// Level returns the derivation level (an upper bound on levelP, exact for
// first derivations) of a, or -1 if underived.
func (r *Result) Level(a atom.AtomID) int {
	if d := r.Local(a); d >= 0 {
		return int(r.level[d])
	}
	return -1
}

// Record is a ground program record in global atom IDs, materialized for
// inspection: Rule is nil for a fact record, and Pos starts with the
// guard.
type Record struct {
	Rule     *program.Rule
	Head     atom.AtomID
	Pos, Neg []atom.AtomID
}

// Record materializes the record at position rec of Ground.
func (r *Result) Record(rec int32) Record {
	in := r.Ground[rec]
	out := Record{Head: r.Universe[in.Head]}
	if in.Rule >= 0 {
		out.Rule = r.Prog.Rules[in.Rule]
	}
	for _, b := range r.Body[in.Off:in.Neg] {
		out.Pos = append(out.Pos, r.Universe[b])
	}
	for _, b := range r.Body[in.Neg:in.End] {
		out.Neg = append(out.Neg, r.Universe[b])
	}
	return out
}
