package atom

import (
	"testing"

	"repro/internal/term"
)

func newStore() *Store { return NewStore(term.NewStore()) }

func TestPredInterning(t *testing.T) {
	s := newStore()
	p, err := s.Pred("p", 2)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := s.Pred("p", 2); err != nil || got != p {
		t.Errorf("re-interning predicate changed ID or errored: %v", err)
	}
	if _, err := s.Pred("p", 3); err == nil {
		t.Errorf("arity conflict not reported")
	}
	if s.PredName(p) != "p" || s.PredArity(p) != 2 {
		t.Errorf("predicate metadata wrong")
	}
	if s.NumPreds() != 1 {
		t.Errorf("NumPreds = %d, want 1", s.NumPreds())
	}
}

func TestMaxArity(t *testing.T) {
	s := newStore()
	if s.MaxArity() != 0 {
		t.Errorf("empty store MaxArity = %d", s.MaxArity())
	}
	s.MustPred("p", 2)
	s.MustPred("q", 5)
	s.MustPred("r", 1)
	if s.MaxArity() != 5 {
		t.Errorf("MaxArity = %d, want 5", s.MaxArity())
	}
}

func TestAtomInterning(t *testing.T) {
	s := newStore()
	p := s.MustPred("p", 2)
	a, b := s.Terms.Const("a"), s.Terms.Const("b")
	pab := s.Atom(p, []term.ID{a, b})
	if got := s.Atom(p, []term.ID{a, b}); got != pab {
		t.Errorf("equal atoms interned differently")
	}
	if got := s.Atom(p, []term.ID{b, a}); got == pab {
		t.Errorf("p(a,b) and p(b,a) share an ID")
	}
	if got, ok := s.Lookup(p, []term.ID{a, b}); !ok || got != pab {
		t.Errorf("Lookup failed")
	}
	if _, ok := s.Lookup(p, []term.ID{a, a}); ok {
		t.Errorf("Lookup found a never-interned atom")
	}
	if s.String(pab) != "p(a,b)" {
		t.Errorf("String = %q", s.String(pab))
	}
	// Only p(a,b) and p(b,a) were interned; Lookup does not intern.
	if got := s.Len(); got != 2 {
		t.Errorf("Len = %d atoms, want 2", got)
	}
}

func TestAtomArityPanics(t *testing.T) {
	s := newStore()
	p := s.MustPred("p", 2)
	defer func() {
		if recover() == nil {
			t.Errorf("wrong-arity atom did not panic")
		}
	}()
	s.Atom(p, []term.ID{s.Terms.Const("a")})
}

func TestNonGroundAtomPanics(t *testing.T) {
	s := newStore()
	p := s.MustPred("p", 1)
	defer func() {
		if recover() == nil {
			t.Errorf("non-ground atom did not panic")
		}
	}()
	s.Atom(p, []term.ID{s.Terms.Var("X")})
}

func TestDom(t *testing.T) {
	s := newStore()
	p := s.MustPred("p", 3)
	a, b := s.Terms.Const("a"), s.Terms.Const("b")
	at := s.Atom(p, []term.ID{a, b, a})
	dom := s.Dom(at)
	if len(dom) != 2 || dom[0] != a || dom[1] != b {
		t.Errorf("Dom = %v, want [a b]", dom)
	}
}

func TestTermDepth(t *testing.T) {
	s := newStore()
	p := s.MustPred("p", 2)
	f := s.Terms.Functor("f", 1)
	a := s.Terms.Const("a")
	fa := s.Terms.Skolem(f, []term.ID{a})
	ffa := s.Terms.Skolem(f, []term.ID{fa})
	at := s.Atom(p, []term.ID{a, ffa})
	if got := s.TermDepth(at); got != 2 {
		t.Errorf("TermDepth = %d, want 2", got)
	}
}

func TestPropositionalAtom(t *testing.T) {
	s := newStore()
	p := s.MustPred("p", 0)
	at := s.Atom(p, nil)
	if s.String(at) != "p" {
		t.Errorf("String = %q, want p", s.String(at))
	}
}

func TestMatchBindsAndUndoes(t *testing.T) {
	s := newStore()
	p := s.MustPred("p", 3)
	a, b := s.Terms.Const("a"), s.Terms.Const("b")
	pat := Pattern{Pred: p, Args: []PArg{VarArg(0), ConstArg(a), VarArg(1)}}

	ground := s.Atom(p, []term.ID{b, a, b})
	sub := NewSubst(2)
	var trail []int32
	if !s.Match(pat, ground, sub, &trail) {
		t.Fatalf("match failed")
	}
	if sub[0] != b || sub[1] != b {
		t.Errorf("bindings wrong: %v", sub)
	}
	Undo(sub, &trail, 0)
	if sub[0] != term.None || sub[1] != term.None || len(trail) != 0 {
		t.Errorf("Undo did not restore state")
	}

	// Constant mismatch.
	bad := s.Atom(p, []term.ID{b, b, b})
	if s.Match(pat, bad, sub, &trail) {
		t.Errorf("matched despite constant mismatch")
	}
	if sub[0] != term.None || len(trail) != 0 {
		t.Errorf("failed match leaked bindings")
	}
}

func TestMatchRepeatedVariable(t *testing.T) {
	s := newStore()
	p := s.MustPred("p", 2)
	a, b := s.Terms.Const("a"), s.Terms.Const("b")
	pat := Pattern{Pred: p, Args: []PArg{VarArg(0), VarArg(0)}}
	sub := NewSubst(1)
	var trail []int32
	if s.Match(pat, s.Atom(p, []term.ID{a, b}), sub, &trail) {
		t.Errorf("p(X,X) matched p(a,b)")
	}
	if len(trail) != 0 {
		t.Errorf("failed match left trail entries")
	}
	if !s.Match(pat, s.Atom(p, []term.ID{a, a}), sub, &trail) {
		t.Errorf("p(X,X) did not match p(a,a)")
	}
}

func TestMatchRespectsExistingBindings(t *testing.T) {
	s := newStore()
	p := s.MustPred("p", 1)
	a, b := s.Terms.Const("a"), s.Terms.Const("b")
	pat := Pattern{Pred: p, Args: []PArg{VarArg(0)}}
	sub := NewSubst(1)
	sub[0] = b
	var trail []int32
	if s.Match(pat, s.Atom(p, []term.ID{a}), sub, &trail) {
		t.Errorf("match overwrote existing binding")
	}
	if !s.Match(pat, s.Atom(p, []term.ID{b}), sub, &trail) {
		t.Errorf("match failed against compatible binding")
	}
}

func TestMatchWrongPredicate(t *testing.T) {
	s := newStore()
	p := s.MustPred("p", 1)
	q := s.MustPred("q", 1)
	a := s.Terms.Const("a")
	pat := Pattern{Pred: p, Args: []PArg{VarArg(0)}}
	sub := NewSubst(1)
	var trail []int32
	if s.Match(pat, s.Atom(q, []term.ID{a}), sub, &trail) {
		t.Errorf("matched atom of a different predicate")
	}
}

func TestInstantiate(t *testing.T) {
	s := newStore()
	p := s.MustPred("p", 2)
	a, b := s.Terms.Const("a"), s.Terms.Const("b")
	pat := Pattern{Pred: p, Args: []PArg{VarArg(0), ConstArg(b)}}
	sub := NewSubst(1)
	sub[0] = a
	got := s.Instantiate(pat, sub)
	if s.String(got) != "p(a,b)" {
		t.Errorf("Instantiate = %s", s.String(got))
	}
	// InstantiateLookup on a never-interned instance.
	sub[0] = b
	if _, ok := s.InstantiateLookup(pat, sub); ok {
		t.Errorf("InstantiateLookup interned p(b,b)")
	}
}

func TestInstantiateUnboundPanics(t *testing.T) {
	s := newStore()
	p := s.MustPred("p", 1)
	pat := Pattern{Pred: p, Args: []PArg{VarArg(0)}}
	defer func() {
		if recover() == nil {
			t.Errorf("unbound instantiate did not panic")
		}
	}()
	s.Instantiate(pat, NewSubst(1))
}

func TestPatternVars(t *testing.T) {
	s := newStore()
	p := s.MustPred("p", 4)
	a := s.Terms.Const("a")
	pat := Pattern{Pred: p, Args: []PArg{VarArg(1), ConstArg(a), VarArg(0), VarArg(1)}}
	vars := pat.Vars()
	if len(vars) != 2 || vars[0] != 1 || vars[1] != 0 {
		t.Errorf("Vars = %v, want [1 0]", vars)
	}
	if s.PatternString(pat) != "p(?1,a,?0,?1)" {
		t.Errorf("PatternString = %q", s.PatternString(pat))
	}
}
