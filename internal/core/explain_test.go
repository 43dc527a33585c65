package core

import (
	"strings"
	"testing"

	"repro/internal/atom"
	"repro/internal/ground"
	"repro/internal/term"
)

// TestExplainExample6MinimalProofs reproduces the paper's Example 6: the
// minimal forward proof of P(0,a) (a = f(0,0,1)) has negative hypotheses
// exactly {Q(1), Q(a)}, and a proof of the R-chain member has none.
func TestExplainExample6MinimalProofs(t *testing.T) {
	prog, db, _, st := compile(t, example4)
	e := NewEngine(prog, db, Options{Depth: 8})
	m := e.Evaluate()

	c0 := st.Terms.Const("0")
	c1 := st.Terms.Const("1")
	sk := prog.Rules[0].Exist[0].Fn
	a := st.Terms.Skolem(sk, []term.ID{c0, c0, c1})
	b := st.Terms.Skolem(sk, []term.ID{c0, c1, a})
	cT := st.Terms.Skolem(sk, []term.ID{c0, a, b})

	// Forward proof of R(0,b,c): purely positive, N(π) = ∅ (Example 6).
	rp, _ := st.LookupPred("r")
	rbc := st.Atom(rp, []term.ID{c0, b, cT})
	proof, ok := m.Explain(rbc)
	if !ok {
		t.Fatalf("no forward proof of R(0,b,c)")
	}
	if len(proof.NegHypotheses) != 0 {
		var hs []string
		for _, h := range proof.NegHypotheses {
			hs = append(hs, st.String(h))
		}
		t.Errorf("N(π) for R(0,b,c) = %v, want ∅", hs)
	}

	// Forward proof of P(0,a): N(π') = {Q(1), Q(a)} (Example 6).
	pp, _ := st.LookupPred("p")
	p0a := st.Atom(pp, []term.ID{c0, a})
	proof2, ok := m.Explain(p0a)
	if !ok {
		t.Fatalf("no forward proof of P(0,a)")
	}
	qp, _ := st.LookupPred("q")
	q1 := st.Atom(qp, []term.ID{c1})
	qa := st.Atom(qp, []term.ID{a})
	if len(proof2.NegHypotheses) != 2 ||
		!(proof2.NegHypotheses[0] == q1 && proof2.NegHypotheses[1] == qa ||
			proof2.NegHypotheses[0] == qa && proof2.NegHypotheses[1] == q1) {
		var hs []string
		for _, h := range proof2.NegHypotheses {
			hs = append(hs, st.String(h))
		}
		t.Errorf("N(π') for P(0,a) = %v, want {q(1), q(a)}", hs)
	}
	// Every negative hypothesis must be false in the model (¬.N(π) ⊆ WFS).
	for _, h := range proof2.NegHypotheses {
		if m.Truth(h) != ground.False {
			t.Errorf("negative hypothesis %s is not false", st.String(h))
		}
	}
}

func TestExplainStructureIsWellFounded(t *testing.T) {
	prog, db, _, st := compile(t, example4)
	m := NewEngine(prog, db, Options{Depth: 8}).Evaluate()
	// Every true atom must have a proof whose leaves are database facts
	// and whose edges follow recorded instances.
	for _, g := range m.TrueAtoms() {
		proof, ok := m.Explain(g)
		if !ok {
			t.Fatalf("true atom %s has no forward proof", st.String(g))
		}
		var walk func(n *ProofNode, depth int)
		seen := map[*ProofNode]bool{}
		walk = func(n *ProofNode, depth int) {
			if depth > 10_000 {
				t.Fatalf("proof of %s is cyclic", st.String(g))
			}
			if seen[n] {
				return
			}
			seen[n] = true
			if n.Inst < 0 {
				if m.Chase.Depth(n.Atom) != 0 {
					t.Errorf("leaf %s is not a database fact", st.String(n.Atom))
				}
				return
			}
			in := &m.GP.Rules[m.Chase.Instances[n.Inst]]
			if m.GP.Atoms[in.Head] != n.Atom {
				t.Errorf("instance head mismatch at %s", st.String(n.Atom))
			}
			if len(n.Children) != len(m.GP.Pos(in)) {
				t.Errorf("children/positive-body mismatch at %s", st.String(n.Atom))
			}
			for _, c := range n.Children {
				walk(c, depth+1)
			}
		}
		walk(proof.Goal, 0)
	}
}

func TestExplainFalseAtom(t *testing.T) {
	prog, db, _, st := compile(t, example4)
	m := NewEngine(prog, db, Options{Depth: 8}).Evaluate()
	c1 := st.Terms.Const("1")
	qp, _ := st.LookupPred("q")
	q1 := st.Atom(qp, []term.ID{c1})

	if _, ok := m.Explain(q1); ok {
		t.Errorf("false atom q(1) has a forward proof")
	}
	blocked, inUniverse := m.ExplainFalse(q1)
	if !inUniverse {
		t.Fatalf("q(1) should be in the derived universe")
	}
	// Its only instance r(0,0,1) ∧ ¬p(0,0) → q(1) is blocked by the
	// negative body atom p(0,0), which is true (a database fact).
	if len(blocked) != 1 {
		t.Fatalf("blocked instances = %d, want 1", len(blocked))
	}
	pp, _ := st.LookupPred("p")
	c0 := st.Terms.Const("0")
	p00 := st.Atom(pp, []term.ID{c0, c0})
	bi := blocked[0]
	if !bi.Negative || bi.Blocker != p00 || bi.BlockerTruth != ground.True {
		t.Errorf("blocker = %+v, want negative p(0,0)=true", bi)
	}

	// An atom outside the universe: no explanation, second return false.
	never := st.Atom(qp, []term.ID{st.Terms.Const("99")})
	if _, inUni := m.ExplainFalse(never); inUni {
		t.Errorf("underived atom reported in universe")
	}
}

func TestProofRender(t *testing.T) {
	prog, db, _, st := compile(t, example4)
	m := NewEngine(prog, db, Options{Depth: 8}).Evaluate()
	c0 := st.Terms.Const("0")
	tp, _ := st.LookupPred("t")
	t0 := st.Atom(tp, []term.ID{c0})
	proof, ok := m.Explain(t0)
	if !ok {
		t.Fatalf("no proof of t(0)")
	}
	out := proof.Render(st)
	for _, want := range []string{"t(0)", "[database fact]", "negative hypotheses", "not s(0)"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestExplainSharedSubproofs(t *testing.T) {
	// Diamond: d needs b and c, both need a: the proof must share a's
	// node rather than duplicate it.
	src := `
a(x).
a(X) -> b(X).
a(X) -> c(X).
b(X), c(X) -> d(X).
`
	prog, db, _, st := compile(t, src)
	m := NewEngine(prog, db, Options{}).Evaluate()
	dp, _ := st.LookupPred("d")
	dx := st.Atom(dp, []term.ID{st.Terms.Const("x")})
	proof, ok := m.Explain(dx)
	if !ok {
		t.Fatalf("no proof of d(x)")
	}
	// Collect distinct nodes per atom: each atom appears exactly once.
	count := map[atom.AtomID][]*ProofNode{}
	var walk func(n *ProofNode)
	seen := map[*ProofNode]bool{}
	walk = func(n *ProofNode) {
		if seen[n] {
			return
		}
		seen[n] = true
		count[n.Atom] = append(count[n.Atom], n)
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(proof.Goal)
	for a, nodes := range count {
		if len(nodes) != 1 {
			t.Errorf("atom %s has %d proof nodes, want 1 (shared)", st.String(a), len(nodes))
		}
	}
}
