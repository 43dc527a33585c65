package ground

// This file holds the production WFS algorithm (the alternating fixpoint)
// and two of its references, the unfounded-set and forward-proof
// iterations (the third is remainder.go). All compute the same
// three-valued model (Theorem 8 and the classical equivalences between the
// alternating fixpoint and the unfounded-set characterization, van
// Gelder–Ross–Schlipf [2], Baral–Subrahmanian [7]); the test suite
// cross-checks them.

// AlternatingFixpoint computes the well-founded model via the van Gelder
// alternating fixpoint: with Γ(S) the least model of the GL-reduct w.r.t.
// S, iterate T ← Γ(U), U ← Γ(T) from U = Γ(∅) until both stabilize;
// true = T, false = complement of U, undefined otherwise.
func AlternatingFixpoint(p *Program) *Model {
	n := p.NumAtoms()
	blocked := make([]bool, len(p.Rules))
	counts := make([]int32, len(p.Rules))
	queue := make([]int32, 0, n)

	t := NewBits(n)
	u := NewBits(n)
	tNext := NewBits(n)
	uNext := NewBits(n)

	// U_0 = Γ(∅): everything derivable when every negative literal is
	// granted.
	p.blockIfNegIn(t /* empty */, blocked)
	u = p.leastModel(blocked, u, counts, queue)

	rounds := 1
	for {
		// T_{i+1} = Γ(U_i)
		p.blockIfNegIn(u, blocked)
		tNext = p.leastModel(blocked, tNext, counts, queue)
		// U_{i+1} = Γ(T_{i+1})
		p.blockIfNegIn(tNext, blocked)
		uNext = p.leastModel(blocked, uNext, counts, queue)
		rounds += 2
		if tNext.Equal(t) && uNext.Equal(u) {
			break
		}
		t, tNext = tNext, t
		u, uNext = uNext, u
	}

	m := &Model{Prog: p, Truth: make([]Truth, n), Rounds: rounds}
	for i := int32(0); int(i) < n; i++ {
		switch {
		case t.Get(i):
			m.Truth[i] = True
		case !u.Get(i):
			m.Truth[i] = False
		default:
			m.Truth[i] = Undefined
		}
	}
	return m
}

// UnfoundedIteration computes the well-founded model by literally iterating
// the §2.6 operator WP(I) = TP(I) ∪ ¬.UP(I) from I = ∅, where UP(I) is the
// greatest unfounded set of P relative to I. The greatest unfounded set is
// obtained as the complement of the least "founded" set F: a ∈ F iff some
// rule with head a has every positive body atom not I-false and in F, and
// every negative body atom not I-true.
func UnfoundedIteration(p *Program) *Model {
	n := p.NumAtoms()
	pos := NewBits(n) // atoms true in I
	neg := NewBits(n) // atoms false in I
	posNext := NewBits(n)
	founded := NewBits(n)
	blocked := make([]bool, len(p.Rules))
	counts := make([]int32, len(p.Rules))
	queue := make([]int32, 0, n)

	rounds := 0
	for {
		rounds++
		// TP(I): heads of rules whose positive body is I-true and whose
		// negative body is I-false.
		posNext.Reset()
		for ri := range p.Rules {
			r := &p.Rules[ri]
			ok := true
			for _, b := range p.Pos(r) {
				if !pos.Get(b) {
					ok = false
					break
				}
			}
			if ok {
				for _, b := range p.Neg(r) {
					if !neg.Get(b) {
						ok = false
						break
					}
				}
			}
			if ok {
				posNext.Set(r.Head)
			}
		}
		// UP(I): complement of the least founded set. A rule supports its
		// head iff no positive body atom is I-false or unfounded, and no
		// negative body atom is I-true. Filter rules statically on the
		// I-dependent parts, then close under the positive parts.
		for ri := range p.Rules {
			r := &p.Rules[ri]
			blocked[ri] = false
			for _, b := range p.Neg(r) {
				if pos.Get(b) {
					blocked[ri] = true
					break
				}
			}
			if !blocked[ri] {
				for _, b := range p.Pos(r) {
					if neg.Get(b) {
						blocked[ri] = true
						break
					}
				}
			}
		}
		founded = p.leastModel(blocked, founded, counts, queue)

		// I' = TP(I) ∪ ¬.UP(I). Unfounded = complement of founded.
		changed := false
		for i := int32(0); int(i) < n; i++ {
			if posNext.Get(i) && !pos.Get(i) {
				pos.Set(i)
				changed = true
			}
			if !founded.Get(i) && !neg.Get(i) {
				neg.Set(i)
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	m := &Model{Prog: p, Truth: make([]Truth, n), Rounds: rounds}
	for i := int32(0); int(i) < n; i++ {
		switch {
		case pos.Get(i) && neg.Get(i):
			// Cannot happen for consistent programs; guard loudly.
			panic("ground: WP produced an inconsistent interpretation")
		case pos.Get(i):
			m.Truth[i] = True
		case neg.Get(i):
			m.Truth[i] = False
		default:
			m.Truth[i] = Undefined
		}
	}
	return m
}

// ForwardProofIteration computes the well-founded model by iterating the
// ŴP operator of Definition 7 (Theorem 8: WFS(P) = lfp(ŴP)): relative to
// the current consistent set of literals I,
//
//   - a becomes true if it has a forward proof π with ¬.N(π) ⊆ I, i.e. a is
//     derivable using only rules all of whose negative body atoms are
//     I-false; and
//   - a becomes false if every forward proof of a has a negative hypothesis
//     contradicted by I, i.e. a is not derivable using rules whose negative
//     body atoms avoid the I-true atoms.
//
// On the finite bounded grounding the transfinite iteration of the paper
// (Example 9 reaches ŴP,ω+2) becomes a finite number of rounds that grows
// with the bound — experiment E4 measures exactly this.
func ForwardProofIteration(p *Program) *Model {
	n := p.NumAtoms()
	pos := NewBits(n)
	neg := NewBits(n)
	provable := NewBits(n)
	derivable := NewBits(n)
	blocked := make([]bool, len(p.Rules))
	counts := make([]int32, len(p.Rules))
	queue := make([]int32, 0, n)

	rounds := 0
	for {
		rounds++
		// Positive part: forward proofs with all negative hypotheses in I.
		p.blockIfNegNotIn(neg, blocked)
		provable = p.leastModel(blocked, provable, counts, queue)
		// Negative part: block rules with an I-true negative body atom;
		// whatever remains underivable has every forward proof refuted.
		p.blockIfNegIn(pos, blocked)
		derivable = p.leastModel(blocked, derivable, counts, queue)

		changed := false
		for i := int32(0); int(i) < n; i++ {
			if provable.Get(i) && !pos.Get(i) {
				pos.Set(i)
				changed = true
			}
			if !derivable.Get(i) && !neg.Get(i) {
				neg.Set(i)
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	m := &Model{Prog: p, Truth: make([]Truth, n), Rounds: rounds}
	for i := int32(0); int(i) < n; i++ {
		switch {
		case pos.Get(i):
			m.Truth[i] = True
		case neg.Get(i):
			m.Truth[i] = False
		default:
			m.Truth[i] = Undefined
		}
	}
	return m
}
