package ground

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// mk builds a program over n atoms with the given rules.
func mk(n int, rules ...Rule) *Program { return New(n, rules) }

func TestPositiveProgramIsLeastModel(t *testing.T) {
	// facts: a0; rules: a1 ← a0; a2 ← a1, a0; a3 ← a4 (unsupported).
	p := mk(5,
		Rule{Head: 0},
		Rule{Head: 1, Pos: []int32{0}},
		Rule{Head: 2, Pos: []int32{1, 0}},
		Rule{Head: 3, Pos: []int32{4}},
	)
	m := AlternatingFixpoint(p)
	want := []Truth{True, True, True, False, False}
	for i, w := range want {
		if m.Truth[i] != w {
			t.Errorf("a%d = %v, want %v", i, m.Truth[i], w)
		}
	}
	if m.CountUndefined() != 0 {
		t.Errorf("positive program has undefined atoms")
	}
}

func TestNegationSimple(t *testing.T) {
	// a0 fact; a1 ← ¬a2; a2 has no rules (false): a1 true.
	p := mk(3,
		Rule{Head: 0},
		Rule{Head: 1, Neg: []int32{2}},
	)
	m := AlternatingFixpoint(p)
	if m.Truth[0] != True || m.Truth[1] != True || m.Truth[2] != False {
		t.Errorf("model = %v", m.Truth)
	}
}

func TestOddLoopUndefined(t *testing.T) {
	// a0 ← ¬a0: undefined.
	p := mk(1, Rule{Head: 0, Neg: []int32{0}})
	m := AlternatingFixpoint(p)
	if m.Truth[0] != Undefined {
		t.Errorf("a0 = %v, want undefined", m.Truth[0])
	}
}

func TestEvenLoopUndefined(t *testing.T) {
	// a0 ← ¬a1; a1 ← ¬a0: both undefined in WFS (two stable models).
	p := mk(2,
		Rule{Head: 0, Neg: []int32{1}},
		Rule{Head: 1, Neg: []int32{0}},
	)
	m := AlternatingFixpoint(p)
	if m.Truth[0] != Undefined || m.Truth[1] != Undefined {
		t.Errorf("model = %v", m.Truth)
	}
	sms := StableModels(p)
	if len(sms) != 2 {
		t.Errorf("stable models = %d, want 2", len(sms))
	}
	if !ApproximatesStable(p, m) {
		t.Errorf("WFS does not approximate the stable models")
	}
}

func TestPositiveLoopFalse(t *testing.T) {
	// a0 ← a1; a1 ← a0: unfounded, both false.
	p := mk(2,
		Rule{Head: 0, Pos: []int32{1}},
		Rule{Head: 1, Pos: []int32{0}},
	)
	m := AlternatingFixpoint(p)
	if m.Truth[0] != False || m.Truth[1] != False {
		t.Errorf("positive loop not unfounded: %v", m.Truth)
	}
}

func TestUnfoundedSetDetectsLoopUnderNegation(t *testing.T) {
	// a0 ← a1, ¬a2; a1 ← a0; a2 fact: everything about the loop false.
	p := mk(3,
		Rule{Head: 0, Pos: []int32{1}, Neg: []int32{2}},
		Rule{Head: 1, Pos: []int32{0}},
		Rule{Head: 2},
	)
	for name, m := range map[string]*Model{
		"alternating": AlternatingFixpoint(p),
		"unfounded":   UnfoundedIteration(p),
		"forward":     ForwardProofIteration(p),
	} {
		if m.Truth[0] != False || m.Truth[1] != False || m.Truth[2] != True {
			t.Errorf("%s: model = %v", name, m.Truth)
		}
	}
}

func TestVanGelderExample(t *testing.T) {
	// The classic: p ← ¬q; q ← ¬p; r ← p; r ← q; s ← r; plus t ← ¬t.
	// p, q, r, s all undefined; t undefined.
	p := mk(5,
		Rule{Head: 0, Neg: []int32{1}},
		Rule{Head: 1, Neg: []int32{0}},
		Rule{Head: 2, Pos: []int32{0}},
		Rule{Head: 2, Pos: []int32{1}},
		Rule{Head: 3, Pos: []int32{2}},
		Rule{Head: 4, Neg: []int32{4}},
	)
	m := AlternatingFixpoint(p)
	for i := 0; i < 5; i++ {
		if m.Truth[i] != Undefined {
			t.Errorf("a%d = %v, want undefined", i, m.Truth[i])
		}
	}
	// r is true in both stable models ({p,r,s},{q,r,s}) but WFS leaves it
	// undefined — the approximation is strict here; ApproximatesStable
	// must still hold.
	if !ApproximatesStable(p, m) {
		t.Errorf("approximation violated")
	}
}

func TestRoundsReported(t *testing.T) {
	p := mk(2, Rule{Head: 0}, Rule{Head: 1, Neg: []int32{0}})
	if m := AlternatingFixpoint(p); m.Rounds < 1 {
		t.Errorf("Rounds = %d", m.Rounds)
	}
}

func TestDuplicateBodyAtoms(t *testing.T) {
	// a1 ← a0, a0 (duplicate positive occurrences must both count down).
	p := mk(2,
		Rule{Head: 0},
		Rule{Head: 1, Pos: []int32{0, 0}},
	)
	m := AlternatingFixpoint(p)
	if m.Truth[1] != True {
		t.Errorf("duplicate body atoms broke the counting fixpoint: %v", m.Truth)
	}
}

func TestModelEqualAndCounts(t *testing.T) {
	p := mk(3, Rule{Head: 0}, Rule{Head: 1, Neg: []int32{1}})
	m1 := AlternatingFixpoint(p)
	m2 := UnfoundedIteration(p)
	if !m1.Equal(m2) {
		t.Fatalf("engines disagree: %v vs %v", m1.Truth, m2.Truth)
	}
	if m1.CountTrue() != 1 || m1.CountUndefined() != 1 {
		t.Errorf("counts wrong: true=%d undef=%d", m1.CountTrue(), m1.CountUndefined())
	}
}

// TestThreeEnginesAgreeRandom is the central cross-check: on randomized
// ground normal programs the alternating fixpoint, the literal WP
// iteration, and the ŴP forward-proof iteration compute the same model
// (Theorem 8 and the classical equivalences).
func TestThreeEnginesAgreeRandom(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(42))}
	if err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := RandomProgram(rng, 3+rng.Intn(12), 3+rng.Intn(25), 3, 3, rng.Intn(3))
		m1 := AlternatingFixpoint(p)
		m2 := UnfoundedIteration(p)
		m3 := ForwardProofIteration(p)
		return m1.Equal(m2) && m1.Equal(m3)
	}, cfg); err != nil {
		t.Error(err)
	}
}

// TestWFSApproximatesStableRandom: on tiny random programs, every
// WFS-true atom is in every stable model and every WFS-false atom in none.
func TestWFSApproximatesStableRandom(t *testing.T) {
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := RandomProgram(rng, 2+rng.Intn(7), 2+rng.Intn(10), 2, 2, rng.Intn(2))
		return ApproximatesStable(p, AlternatingFixpoint(p))
	}, cfg); err != nil {
		t.Error(err)
	}
}

// TestPositiveRandomTwoValued: positive random programs are two-valued
// and their true set is the least model.
func TestPositiveRandomTwoValued(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := RandomProgram(rng, 3+rng.Intn(12), 3+rng.Intn(20), 3, 0, 1+rng.Intn(3))
		m := AlternatingFixpoint(p)
		return m.CountUndefined() == 0
	}, cfg); err != nil {
		t.Error(err)
	}
}

// TestStratifiedCoincidesWithWFSRandom: random stratified programs
// (negation only toward strictly lower atom indexes, positive bodies
// arbitrary... to keep it stratified we order positives too) have a
// two-valued WFS, and the modular condensation solve — the evaluation
// path the strat baseline now builds on — computes exactly it with zero
// hard (negation-cyclic) components.
func TestStratifiedCoincidesWithWFSRandom(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(13))}
	if err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(10)
		var rules []Rule
		for i := 0; i < 3+rng.Intn(15); i++ {
			h := int32(1 + rng.Intn(n-1))
			r := Rule{Head: h}
			for j := rng.Intn(3); j > 0; j-- {
				r.Pos = append(r.Pos, int32(rng.Intn(int(h)+1))) // ≤ h: same stratum ok
			}
			for j := rng.Intn(3); j > 0; j-- {
				r.Neg = append(r.Neg, int32(rng.Intn(int(h)))) // < h: lower stratum
			}
			rules = append(rules, r)
		}
		rules = append(rules, Rule{Head: 0})
		p := New(n, rules)
		wfs := AlternatingFixpoint(p)
		perfect := SolveModular(p, AlternatingFixpoint, 1)
		if wfs.CountUndefined() != 0 || perfect.CountUndefined() != 0 {
			return false
		}
		if perfect.SCCs > 1 && perfect.HardSCCs != 0 {
			return false // stratified ⇒ no negation cycles
		}
		return wfs.Equal(perfect)
	}, cfg); err != nil {
		t.Error(err)
	}
}

// TestConsistencyRandom: the computed model never assigns an atom both
// values — structurally guaranteed for the alternating fixpoint, and the
// unfounded-set engine panics on a TP/UP clash, so surviving the run is
// the assertion.
func TestConsistencyRandom(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(17))}
	if err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := RandomProgram(rng, 3+rng.Intn(10), 3+rng.Intn(20), 3, 3, rng.Intn(3))
		UnfoundedIteration(p) // panics on inconsistency
		// True and undefined partition with false by construction:
		m := AlternatingFixpoint(p)
		return m.CountTrue()+m.CountUndefined() <= p.NumAtoms()
	}, cfg); err != nil {
		t.Error(err)
	}
}

func TestStableModelsOracle(t *testing.T) {
	// p ← ¬q; q ← ¬p has exactly the stable models {p} and {q}.
	p := mk(2,
		Rule{Head: 0, Neg: []int32{1}},
		Rule{Head: 1, Neg: []int32{0}},
	)
	sms := StableModels(p)
	if len(sms) != 2 {
		t.Fatalf("stable models = %d, want 2", len(sms))
	}
	// p ← ¬p has none.
	odd := mk(1, Rule{Head: 0, Neg: []int32{0}})
	if sms := StableModels(odd); len(sms) != 0 {
		t.Errorf("odd loop has %d stable models, want 0", len(sms))
	}
	// A definite program has exactly one (its least model).
	def := mk(2, Rule{Head: 0}, Rule{Head: 1, Pos: []int32{0}})
	if sms := StableModels(def); len(sms) != 1 || !sms[0][0] || !sms[0][1] {
		t.Errorf("definite program stable models wrong: %v", sms)
	}
}

func TestStableModelsSizeGuard(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("oversized StableModels call did not panic")
		}
	}()
	StableModels(New(25, nil))
}

func TestBits(t *testing.T) {
	b := NewBits(130)
	b.Set(0)
	b.Set(64)
	b.Set(129)
	if !b.Get(0) || !b.Get(64) || !b.Get(129) || b.Get(1) {
		t.Errorf("bit ops wrong")
	}
	if b.Count() != 3 {
		t.Errorf("Count = %d, want 3", b.Count())
	}
	c := b.Clone()
	if !c.Equal(b) {
		t.Errorf("clone not equal")
	}
	b.Clear(64)
	if b.Get(64) || c.Equal(b) {
		t.Errorf("Clear leaked into clone or failed")
	}
	b.Reset()
	if b.Count() != 0 {
		t.Errorf("Reset failed")
	}
}

func TestTruthString(t *testing.T) {
	if True.String() != "true" || False.String() != "false" || Undefined.String() != "undefined" {
		t.Errorf("Truth strings wrong")
	}
}

// TestRemainderAgreesRandom cross-checks the Brass–Dix remainder against
// the alternating fixpoint on randomized programs.
func TestRemainderAgreesRandom(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(47))}
	if err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := RandomProgram(rng, 3+rng.Intn(12), 3+rng.Intn(25), 3, 3, rng.Intn(3))
		return AlternatingFixpoint(p).Equal(Remainder(p))
	}, cfg); err != nil {
		t.Error(err)
	}
}

func TestRemainderByHand(t *testing.T) {
	// a0 fact; a1 ← ¬a2; a2 ← ¬a1 (even loop: undefined);
	// a3 ← a0, ¬a4; a4 no rules (failed): a3 true;
	// a5 ← a6; a6 ← a5 (positive loop: false).
	p := mk(7,
		Rule{Head: 0},
		Rule{Head: 1, Neg: []int32{2}},
		Rule{Head: 2, Neg: []int32{1}},
		Rule{Head: 3, Pos: []int32{0}, Neg: []int32{4}},
		Rule{Head: 5, Pos: []int32{6}},
		Rule{Head: 6, Pos: []int32{5}},
	)
	m := Remainder(p)
	want := []Truth{True, Undefined, Undefined, True, False, False, False}
	for i, w := range want {
		if m.Truth[i] != w {
			t.Errorf("a%d = %v, want %v", i, m.Truth[i], w)
		}
	}
}

// CountTrue returns the number of true atoms.
func (m *Model) CountTrue() int { return m.count(True) }

// String renders the model as {a, b, ¬c, u?} style sets for debugging.
func (m *Model) String() string {
	var tr, fa, un []string
	for i, t := range m.Truth {
		name := fmt.Sprintf("a%d", i)
		switch t {
		case True:
			tr = append(tr, name)
		case False:
			fa = append(fa, name)
		default:
			un = append(un, name)
		}
	}
	return fmt.Sprintf("true=%s false=%s undef=%s",
		strings.Join(tr, ","), strings.Join(fa, ","), strings.Join(un, ","))
}
