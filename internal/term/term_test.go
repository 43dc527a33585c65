package term

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func TestConstInterning(t *testing.T) {
	s := NewStore()
	a := s.Const("a")
	b := s.Const("b")
	if a == b {
		t.Fatalf("distinct constants interned to the same ID")
	}
	if got := s.Const("a"); got != a {
		t.Errorf("re-interning a constant produced a new ID")
	}
	if s.Kind(a) != Const || s.Name(a) != "a" {
		t.Errorf("constant metadata wrong: kind=%v name=%q", s.Kind(a), s.Name(a))
	}
	if s.Depth(a) != 0 {
		t.Errorf("constant depth = %d, want 0", s.Depth(a))
	}
	if !s.IsGround(a) {
		t.Errorf("constant not ground")
	}
}

func TestVarInterning(t *testing.T) {
	s := NewStore()
	x := s.Var("X")
	if got := s.Var("X"); got != x {
		t.Errorf("re-interning a variable produced a new ID")
	}
	if s.Kind(x) != Var {
		t.Errorf("kind = %v, want Var", s.Kind(x))
	}
	if s.IsGround(x) {
		t.Errorf("variable reported ground")
	}
	// A variable named like a constant is a distinct term.
	if c := s.Const("X"); c == x {
		t.Errorf("constant and variable with the same spelling share an ID")
	}
}

func TestSkolemInterningAndDepth(t *testing.T) {
	s := NewStore()
	f := s.Functor("f", 2)
	g := s.Functor("g", 1)
	a, b := s.Const("a"), s.Const("b")

	fab := s.Skolem(f, []ID{a, b})
	if got := s.Skolem(f, []ID{a, b}); got != fab {
		t.Errorf("structurally equal Skolem terms interned differently")
	}
	if got := s.Skolem(f, []ID{b, a}); got == fab {
		t.Errorf("f(a,b) and f(b,a) interned to the same ID")
	}
	gfab := s.Skolem(g, []ID{fab})
	if s.Depth(fab) != 1 || s.Depth(gfab) != 2 {
		t.Errorf("depths: f(a,b)=%d g(f(a,b))=%d, want 1, 2", s.Depth(fab), s.Depth(gfab))
	}
	if s.SkolemFunctor(gfab) != g || len(s.SkolemArgs(gfab)) != 1 {
		t.Errorf("skolem metadata wrong")
	}
	if s.String(gfab) != "g(f(a,b))" {
		t.Errorf("String = %q, want g(f(a,b))", s.String(gfab))
	}
}

func TestFunctorArityEnforced(t *testing.T) {
	s := NewStore()
	f := s.Functor("f", 2)
	defer func() {
		if recover() == nil {
			t.Errorf("wrong-arity Skolem application did not panic")
		}
	}()
	s.Skolem(f, []ID{s.Const("a")})
}

func TestFunctorRedeclareArityPanics(t *testing.T) {
	s := NewStore()
	s.Functor("f", 2)
	defer func() {
		if recover() == nil {
			t.Errorf("functor arity re-declaration did not panic")
		}
	}()
	s.Functor("f", 3)
}

func TestSkolemWithVariablePanics(t *testing.T) {
	s := NewStore()
	f := s.Functor("f", 1)
	x := s.Var("X")
	defer func() {
		if recover() == nil {
			t.Errorf("Skolem over a variable did not panic")
		}
	}()
	s.Skolem(f, []ID{x})
}

// TestCompareOrder checks the §2.1 order: constants lexicographic, all
// nulls after all constants, nulls ordered structurally.
func TestCompareOrder(t *testing.T) {
	s := NewStore()
	a, b := s.Const("a"), s.Const("b")
	f := s.Functor("f", 1)
	g := s.Functor("g", 1)
	fa := s.Skolem(f, []ID{a})
	fb := s.Skolem(f, []ID{b})
	ga := s.Skolem(g, []ID{a})

	ordered := []ID{a, b, fa, fb, ga}
	for i := range ordered {
		for j := range ordered {
			got := s.Compare(ordered[i], ordered[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("Compare(%s, %s) = %d, want %d",
					s.String(ordered[i]), s.String(ordered[j]), got, want)
			}
		}
	}
}

func TestSortUsesOrder(t *testing.T) {
	s := NewStore()
	f := s.Functor("f", 1)
	z := s.Const("z")
	fa := s.Skolem(f, []ID{z})
	a := s.Const("a")
	ts := []ID{fa, z, a}
	s.Sort(ts)
	if ts[0] != a || ts[1] != z || ts[2] != fa {
		t.Errorf("Sort order wrong: %v", ts)
	}
}

// Property: interning is injective on structure — two random term trees
// get the same ID iff they are structurally identical.
func TestInterningInjective(t *testing.T) {
	s := NewStore()
	fs := []FunctorID{s.Functor("f", 1), s.Functor("g", 2)}
	consts := []ID{s.Const("a"), s.Const("b"), s.Const("c")}
	rng := rand.New(rand.NewSource(1))

	var build func(depth int) (ID, string)
	build = func(depth int) (ID, string) {
		if depth == 0 || rng.Intn(2) == 0 {
			c := consts[rng.Intn(len(consts))]
			return c, s.Name(c)
		}
		if rng.Intn(2) == 0 {
			a, sa := build(depth - 1)
			return s.Skolem(fs[0], []ID{a}), "f(" + sa + ")"
		}
		a, sa := build(depth - 1)
		b, sb := build(depth - 1)
		return s.Skolem(fs[1], []ID{a, b}), "g(" + sa + "," + sb + ")"
	}

	seen := map[string]ID{}
	for i := 0; i < 2000; i++ {
		id, repr := build(4)
		if prev, ok := seen[repr]; ok && prev != id {
			t.Fatalf("structure %q interned to two IDs", repr)
		}
		seen[repr] = id
		if s.String(id) != repr {
			t.Fatalf("String(%d) = %q, want %q", id, s.String(id), repr)
		}
	}
}

// Property: Compare is a strict weak order compatible with equality of IDs.
func TestCompareProperties(t *testing.T) {
	s := NewStore()
	f := s.Functor("f", 1)
	pool := []ID{s.Const("a"), s.Const("b"), s.Const("c")}
	for i := 0; i < 8; i++ {
		pool = append(pool, s.Skolem(f, []ID{pool[i]}))
	}
	pick := func(r *rand.Rand) ID { return pool[r.Intn(len(pool))] }

	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(7))}
	// Antisymmetry + reflexivity.
	if err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x, y := pick(r), pick(r)
		cxy, cyx := s.Compare(x, y), s.Compare(y, x)
		if x == y {
			return cxy == 0
		}
		return cxy == -cyx && cxy != 0
	}, cfg); err != nil {
		t.Error(err)
	}
	// Transitivity.
	if err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x, y, z := pick(r), pick(r), pick(r)
		if s.Compare(x, y) <= 0 && s.Compare(y, z) <= 0 {
			return s.Compare(x, z) <= 0
		}
		return true
	}, cfg); err != nil {
		t.Error(err)
	}
}

func TestLookupConst(t *testing.T) {
	s := NewStore()
	if _, ok := s.LookupConst("nope"); ok {
		t.Errorf("LookupConst found a constant in an empty store")
	}
	a := s.Const("a")
	got, ok := s.LookupConst("a")
	if !ok || got != a {
		t.Errorf("LookupConst = %v,%v want %v,true", got, ok, a)
	}
}

func TestLenCounts(t *testing.T) {
	s := NewStore()
	s.Const("a")
	s.Var("X")
	f := s.Functor("f", 1)
	s.Skolem(f, []ID{s.Const("a")})
	if s.Len() != 3 {
		t.Errorf("Len = %d, want 3", s.Len())
	}
	if s.NumFunctors() != 1 {
		t.Errorf("NumFunctors = %d, want 1", s.NumFunctors())
	}
	if s.FunctorName(f) != "f" || s.FunctorArity(f) != 1 {
		t.Errorf("functor metadata wrong")
	}
}

// TestConcurrentInterning: goroutines interning the same keys at once,
// in different orders, agree on every ID and create each term once.
func TestConcurrentInterning(t *testing.T) {
	s := NewStore()
	f := s.Functor("f", 1)
	const n, workers = 1000, 8
	ids := make([][]ID, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := make([]ID, 2*n)
			for _, i := range rand.New(rand.NewSource(int64(w))).Perm(n) {
				c := s.Const(fmt.Sprintf("c%d", i))
				got[i], got[n+i] = c, s.Skolem(f, []ID{c})
			}
			ids[w] = got
		}()
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if !slices.Equal(ids[w], ids[0]) {
			t.Fatalf("worker %d saw other IDs than worker 0", w)
		}
	}
	if s.Len() != 2*n {
		t.Errorf("Len = %d, want %d", s.Len(), 2*n)
	}
}
