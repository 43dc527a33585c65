package core

import (
	"testing"

	"repro/internal/atom"
	"repro/internal/ground"
	"repro/internal/program"
	"repro/internal/term"
)

// example4 is the paper's Example 4 program (given there in Σf form; here
// in TGD form so the compiler performs the functional transformation):
//
//	R(X,Y,Z) → ∃W R(X,Z,W)
//	R(X,Y,Z) ∧ P(X,Y) ∧ ¬Q(Z) → P(X,Z)
//	R(X,Y,Z) ∧ ¬P(X,Y) → Q(Z)
//	R(X,Y,Z) ∧ ¬P(X,Z) → S(X)
//	P(X,Y) ∧ ¬S(X) → T(X)
//
// with D = {R(0,0,1), P(0,0)}.
const example4 = `
r(0,0,1).
p(0,0).
r(X,Y,Z) -> r(X,Z,W).
r(X,Y,Z), p(X,Y), not q(Z) -> p(X,Z).
r(X,Y,Z), not p(X,Y) -> q(Z).
r(X,Y,Z), not p(X,Z) -> s(X).
p(X,Y), not s(X) -> t(X).
`

func compile(t *testing.T, src string) (*program.Program, program.Database, []*program.Query, *atom.Store) {
	t.Helper()
	st := atom.NewStore(term.NewStore())
	prog, db, qs, err := program.CompileText(src, st)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return prog, db, qs, st
}

// mustAtom interns a ground atom from constants already in the store.
func mustAtom(t *testing.T, st *atom.Store, pred string, args ...term.ID) atom.AtomID {
	t.Helper()
	p, ok := st.LookupPred(pred)
	if !ok {
		t.Fatalf("unknown predicate %s", pred)
	}
	return st.Atom(p, args)
}

func TestExample4PaperLiterals(t *testing.T) {
	prog, db, _, st := compile(t, example4)
	e := NewEngine(prog, db, Options{Depth: 10})
	m := e.Evaluate()

	c0 := st.Terms.Const("0")
	c1 := st.Terms.Const("1")

	// t_0=0, t_1=1, t_{i+2}=f(0,t_i,t_{i+1}) (Example 9).
	sk := prog.Rules[0].Exist[0].Fn
	ts := []term.ID{c0, c1}
	for i := 2; i < 8; i++ {
		ts = append(ts, st.Terms.Skolem(sk, []term.ID{c0, ts[i-2], ts[i-1]}))
	}

	// WFS(D,Σ) includes R(0,1,f(0,0,1)) and P(0,1) (Example 4).
	if got := m.Truth(mustAtom(t, st, "r", c0, c1, ts[2])); got != ground.True {
		t.Errorf("R(0,1,f(0,0,1)) = %v, want true", got)
	}
	if got := m.Truth(mustAtom(t, st, "p", c0, c1)); got != ground.True {
		t.Errorf("P(0,1) = %v, want true", got)
	}
	// ¬Q(1) ∈ WFS (Example 4: no rule can derive R(*,*,1), and
	// P(0,0) ∈ D blocks the only candidate instance).
	if got := m.Truth(mustAtom(t, st, "q", c1)); got != ground.False {
		t.Errorf("Q(1) = %v, want false", got)
	}
	// Example 9: every P(0,t_j) true, every Q(t_j) false (j ≥ 1),
	// ¬S(0) and T(0) in WFS — the ŴP,ω+2 content.
	for j := 0; j <= 5; j++ {
		if got := m.Truth(mustAtom(t, st, "p", c0, ts[j])); got != ground.True {
			t.Errorf("P(0,t_%d) = %v, want true", j, got)
		}
	}
	for j := 1; j <= 5; j++ {
		if got := m.Truth(mustAtom(t, st, "q", ts[j])); got != ground.False {
			t.Errorf("Q(t_%d) = %v, want false", j, got)
		}
	}
	if got := m.Truth(mustAtom(t, st, "s", c0)); got != ground.False {
		t.Errorf("S(0) = %v, want false", got)
	}
	if got := m.Truth(mustAtom(t, st, "t", c0)); got != ground.True {
		t.Errorf("T(0) = %v, want true", got)
	}
}

// references are the equivalent WFS operators package ground keeps beside
// the production solve (the modular alternating fixpoint): the global
// alternating fixpoint, WP = TP ∪ ¬.UP iterated literally (§2.6), the ŴP
// operator of Definition 7, and the Brass–Dix remainder.
var references = []struct {
	name string
	wfs  func(*ground.Program) *ground.Model
}{
	{"alternating-fixpoint", ground.AlternatingFixpoint},
	{"unfounded-sets", ground.UnfoundedIteration},
	{"forward-proofs", ground.ForwardProofIteration},
	{"remainder", ground.Remainder},
}

// agreesWithReferences reports the first reference that, run on m's own
// ground program, disagrees with the model production computed for it.
func agreesWithReferences(m *Model) (string, bool) {
	for _, ref := range references {
		if !ref.wfs(m.GP).Equal(m.GM) {
			return ref.name, false
		}
	}
	return "", true
}

func TestExample4AllAlgorithmsAgree(t *testing.T) {
	prog, db, _, _ := compile(t, example4)
	m := NewEngine(prog, db, Options{Depth: 8}).Evaluate()
	if name, ok := agreesWithReferences(m); !ok {
		t.Errorf("%s disagrees with the production model", name)
	}
}

func TestExample4QueryAnswers(t *testing.T) {
	prog, db, _, st := compile(t, example4)
	e := NewEngine(prog, db, Options{})

	for _, tc := range []struct {
		q    string
		want ground.Truth
	}{
		{"? t(X).", ground.True},
		{"? p(0, X), not q(X).", ground.True},
		{"? s(X).", ground.False},
		{"? t(X), not s(X).", ground.True},
		{"? q(X).", ground.False},
		{"? r(X, Y, Z), not p(X, Z).", ground.False},
	} {
		q, err := program.ParseQuery(tc.q, st)
		if err != nil {
			t.Fatalf("parse %q: %v", tc.q, err)
		}
		got, stats, err := e.Answer(q)
		if err != nil {
			t.Fatalf("%s: %v", tc.q, err)
		}
		if got != tc.want {
			t.Errorf("%s = %v, want %v (stats %+v)", tc.q, got, tc.want, stats)
		}
		if !stats.Stable && !stats.Exact {
			t.Errorf("%s: answer did not stabilize: %+v", tc.q, stats)
		}
	}
}

// TestExample4IterationGrowth checks the finite shadow of Example 9's
// transfinite iteration: the number of fixpoint rounds grows with the
// chase depth (the computation does not close at any fixed stage), while
// the answers stay stable.
func TestExample4IterationGrowth(t *testing.T) {
	prog, db, _, st := compile(t, example4)
	c0 := st.Terms.Const("0")
	prev := 0
	grew := 0
	for _, d := range []int{4, 8, 12, 16} {
		e := NewEngine(prog, db, Options{Depth: d})
		m := e.Evaluate()
		if got := m.Truth(mustAtom(t, st, "t", c0)); got != ground.True {
			t.Fatalf("depth %d: T(0) = %v, want true", d, got)
		}
		if m.GM.Rounds > prev {
			grew++
		}
		prev = m.GM.Rounds
	}
	if grew < 3 {
		t.Errorf("fixpoint rounds did not grow with depth (transfinite shadow missing)")
	}
}

func TestWinMoveThreeValued(t *testing.T) {
	// The classic WFS example: win(X) ← move(X,Y), ¬win(Y).
	// Chain a→b→c: win(b) (moves to dead-end c), ¬win(c), win(a)?
	// a moves to b which is won ⇒ a's only move is to a winning
	// position: win(a) false. Cycle d↔e: undefined.
	src := `
move(a,b). move(b,c). move(d,e). move(e,d).
move(X,Y), not win(Y) -> win(X).
`
	prog, db, _, st := compile(t, src)
	e := NewEngine(prog, db, Options{})
	m := e.Evaluate()
	if !m.Exact {
		t.Fatalf("win-move chase should saturate (no existentials)")
	}
	want := map[string]ground.Truth{
		"a": ground.False,
		"b": ground.True,
		"c": ground.False,
		"d": ground.Undefined,
		"e": ground.Undefined,
	}
	for name, tv := range want {
		c := st.Terms.Const(name)
		if got := m.Truth(mustAtom(t, st, "win", c)); got != tv {
			t.Errorf("win(%s) = %v, want %v", name, got, tv)
		}
	}
}

func TestUNASkolemDistinctness(t *testing.T) {
	// Two different existential rules produce distinct nulls; under UNA
	// they never coincide with each other or with constants.
	src := `
person(a).
person(X) -> id1(X, Y).
person(X) -> id2(X, Y).
`
	prog, db, _, st := compile(t, src)
	e := NewEngine(prog, db, Options{})
	m := e.Evaluate()
	ca := st.Terms.Const("a")
	f1 := prog.Rules[0].Exist[0].Fn
	f2 := prog.Rules[1].Exist[0].Fn
	n1 := st.Terms.Skolem(f1, []term.ID{ca})
	n2 := st.Terms.Skolem(f2, []term.ID{ca})
	if n1 == n2 {
		t.Fatalf("distinct Skolem functors produced the same term")
	}
	if st.Terms.Compare(n1, n2) == 0 {
		t.Fatalf("distinct nulls compare equal")
	}
	if got := m.Truth(mustAtom(t, st, "id1", ca, n1)); got != ground.True {
		t.Errorf("id1(a, f1(a)) = %v, want true", got)
	}
	if got := m.Truth(mustAtom(t, st, "id1", ca, n2)); got != ground.False {
		t.Errorf("id1(a, f2(a)) = %v, want false (UNA)", got)
	}
}

func TestWCheckAgreesWithSaturation(t *testing.T) {
	prog, db, _, _ := compile(t, example4)
	e := NewEngine(prog, db, Options{Depth: 8})
	m := e.Evaluate()
	for i, g := range m.GP.Atoms {
		want := m.GM.Truth[i]
		got, _ := m.WCheck(g)
		if got != want {
			t.Errorf("WCheck(%s) = %v, saturated = %v",
				prog.Store.String(g), got, want)
		}
	}
}

func TestWCheckClosureSmallerOnDisconnectedGraph(t *testing.T) {
	src := `
move(a,b). move(b,c).
move(x1,x2). move(x2,x3). move(x3,x4). move(x4,x5).
move(y1,y2). move(y2,y1).
move(X,Y), not win(Y) -> win(X).
`
	prog, db, _, st := compile(t, src)
	e := NewEngine(prog, db, Options{})
	m := e.Evaluate()
	cb := st.Terms.Const("b")
	goal := mustAtom(t, st, "win", cb)
	truth, stats := m.WCheck(goal)
	if truth != ground.True {
		t.Fatalf("win(b) = %v, want true", truth)
	}
	if stats.ClosureAtoms >= stats.TotalAtoms {
		t.Errorf("goal-directed closure (%d atoms) not smaller than universe (%d)",
			stats.ClosureAtoms, stats.TotalAtoms)
	}
}

func TestDeltaBound(t *testing.T) {
	// δ = 2·|R|·(2w)^w·2^(|R|·(2w)^w): for |R|=1, w=1 this is
	// 2·1·2·2^2 = 16.
	if got := Delta(1, 1); got.Int64() != 16 {
		t.Errorf("Delta(1,1) = %v, want 16", got)
	}
	// For |R|=5, w=2 the exponent is 5·16=80: δ = 2·5·16·2^80.
	d := Delta(5, 2)
	if d.BitLen() < 80 {
		t.Errorf("Delta(5,2) unexpectedly small: %v", d)
	}
}

func TestConstraintAndEGDChecking(t *testing.T) {
	src := `
emp(a). seeker(a). id(a, k1). id(a, k2).
emp(X), seeker(X) -> false.
id(X, Y), id(X, Z) -> Y = Z.
`
	prog, db, _, _ := compile(t, src)
	e := NewEngine(prog, db, Options{})
	m := e.Evaluate()
	vs := m.CheckConstraints()
	var kinds []string
	for _, v := range vs {
		kinds = append(kinds, v.Kind)
	}
	if len(vs) != 2 {
		t.Fatalf("got %d violations (%v), want 2", len(vs), kinds)
	}
	if m.Consistent() {
		t.Errorf("model reported consistent despite certain violations")
	}
}

func TestAnswerExactOnFiniteChase(t *testing.T) {
	src := `
edge(a,b). edge(b,c). start(a).
start(X) -> reach(X).
reach(X), edge(X,Y) -> reach(Y).
`
	prog, db, _, st := compile(t, src)
	e := NewEngine(prog, db, Options{})
	q, err := program.ParseQuery("? reach(c).", st)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := e.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if got != ground.True {
		t.Errorf("reach(c) = %v, want true", got)
	}
	if !stats.Exact {
		t.Errorf("finite chase should produce an exact answer: %+v", stats)
	}
}
