package ground

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestGreatestUnfoundedSetByHand verifies UP(I) against the §2.6
// definition on a hand-worked example.
func TestGreatestUnfoundedSetByHand(t *testing.T) {
	// a0 fact; a1 ← a2; a2 ← a1 (positive loop: unfounded);
	// a3 ← ¬a0 (blocked once a0 ∈ I); a4 ← a0 (founded).
	p := mk(5,
		Rule{Head: 0},
		Rule{Head: 1, Pos: []int32{2}},
		Rule{Head: 2, Pos: []int32{1}},
		Rule{Head: 3, Neg: []int32{0}},
		Rule{Head: 4, Pos: []int32{0}},
	)
	// Relative to the empty interpretation the loop is unfounded, a3 is
	// not (its rule is not blocked by ∅), a0/a4 are founded.
	u0 := GreatestUnfoundedSet(p, NewInterp(5))
	for i, want := range []bool{false, true, true, false, false} {
		if u0.Get(int32(i)) != want {
			t.Errorf("U(∅): a%d = %v, want %v", i, u0.Get(int32(i)), want)
		}
	}
	// Relative to I = {a0}: a3's only rule has a negative body atom true
	// in I, so a3 joins the unfounded set.
	i1 := NewInterp(5)
	i1.Pos.Set(0)
	u1 := GreatestUnfoundedSet(p, i1)
	if !u1.Get(3) {
		t.Errorf("U({a0}) misses a3")
	}
	if u1.Get(0) || u1.Get(4) {
		t.Errorf("U({a0}) contains founded atoms")
	}
}

// TestUnfoundedSetIsUnfounded: property — every atom of UP(I) satisfies
// the §2.6 unfoundedness condition literally.
func TestUnfoundedSetIsUnfounded(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(23))}
	if err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		p := RandomProgram(rng, n, 3+rng.Intn(15), 3, 3, rng.Intn(3))
		i := NewInterp(n)
		// Random consistent I.
		for a := int32(0); int(a) < n; a++ {
			switch rng.Intn(3) {
			case 0:
				i.Pos.Set(a)
			case 1:
				i.Neg.Set(a)
			}
		}
		u := GreatestUnfoundedSet(p, i)
		for a := int32(0); int(a) < n; a++ {
			if !u.Get(a) {
				continue
			}
			for _, ri := range p.RulesFor(a) {
				r := &p.Rules[ri]
				ok := false
				for _, b := range p.Pos(r) {
					if i.Neg.Get(b) || u.Get(b) { // (i)
						ok = true
						break
					}
				}
				if !ok {
					for _, b := range p.Neg(r) {
						if i.Pos.Get(b) { // (ii)
							ok = true
							break
						}
					}
				}
				if !ok {
					return false // a rule supports an "unfounded" atom
				}
			}
		}
		return true
	}, cfg); err != nil {
		t.Error(err)
	}
}

// TestGreatestUnfoundedSetIsGreatest: property — UP(I) contains every
// singleton-testable unfounded atom: no atom outside UP(I) ∪ founded
// support can be added while preserving the condition. We test greatest-
// ness by checking that UP(I) equals the union of all unfounded sets
// found by brute force on tiny programs.
func TestGreatestUnfoundedSetIsGreatest(t *testing.T) {
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(29))}
	isUnfounded := func(p *Program, i Interp, set Bits) bool {
		n := p.NumAtoms()
		for a := int32(0); int(a) < n; a++ {
			if !set.Get(a) {
				continue
			}
			for _, ri := range p.RulesFor(a) {
				r := &p.Rules[ri]
				ok := false
				for _, b := range p.Pos(r) {
					if i.Neg.Get(b) || set.Get(b) {
						ok = true
						break
					}
				}
				if !ok {
					for _, b := range p.Neg(r) {
						if i.Pos.Get(b) {
							ok = true
							break
						}
					}
				}
				if !ok {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6) // tiny: brute force over subsets
		p := RandomProgram(rng, n, 2+rng.Intn(8), 2, 2, rng.Intn(2))
		i := NewInterp(n)
		for a := int32(0); int(a) < n; a++ {
			if rng.Intn(4) == 0 {
				i.Pos.Set(a)
			}
		}
		u := GreatestUnfoundedSet(p, i)
		// Union of all unfounded sets found by brute force.
		union := NewBits(n)
		for mask := 0; mask < 1<<n; mask++ {
			set := NewBits(n)
			for b := 0; b < n; b++ {
				if mask&(1<<b) != 0 {
					set.Set(int32(b))
				}
			}
			if isUnfounded(p, i, set) {
				for b := int32(0); int(b) < n; b++ {
					if set.Get(b) {
						union.Set(b)
					}
				}
			}
		}
		return u.Equal(union)
	}, cfg); err != nil {
		t.Error(err)
	}
}

func TestImmediateConsequence(t *testing.T) {
	p := mk(4,
		Rule{Head: 0},
		Rule{Head: 1, Pos: []int32{0}},
		Rule{Head: 2, Pos: []int32{0}, Neg: []int32{3}},
	)
	i := NewInterp(4)
	i.Pos.Set(0)
	tp := ImmediateConsequence(p, i)
	if !tp.Get(0) || !tp.Get(1) {
		t.Errorf("TP misses supported heads")
	}
	if tp.Get(2) {
		t.Errorf("TP fired a rule whose negative body is not yet false")
	}
	i.Neg.Set(3)
	if tp := ImmediateConsequence(p, i); !tp.Get(2) {
		t.Errorf("TP did not fire after ¬a3 established")
	}
}

// TestWPIterationMatchesEngines: iterating WPStep from ∅ converges to the
// same model as the packaged algorithms (it *is* the §2.6 lfp).
func TestWPIterationMatchesEngines(t *testing.T) {
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(31))}
	if err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8)
		p := RandomProgram(rng, n, 3+rng.Intn(12), 2, 2, rng.Intn(3))
		i := NewInterp(n)
		for {
			next := WPStep(p, i)
			if next.Pos.Equal(i.Pos) && next.Neg.Equal(i.Neg) {
				break
			}
			// Accumulate (the iteration is monotone from ∅).
			for a := int32(0); int(a) < n; a++ {
				if next.Pos.Get(a) {
					i.Pos.Set(a)
				}
				if next.Neg.Get(a) {
					i.Neg.Set(a)
				}
			}
		}
		m := AlternatingFixpoint(p)
		for a := int32(0); int(a) < n; a++ {
			var want Truth
			switch {
			case i.Pos.Get(a):
				want = True
			case i.Neg.Get(a):
				want = False
			default:
				want = Undefined
			}
			if m.Truth[a] != want {
				return false
			}
		}
		return true
	}, cfg); err != nil {
		t.Error(err)
	}
}
