package ground

// Interp is an explicit three-valued interpretation I ⊆ LitP given as two
// disjoint atom sets, used by the standalone §2.6 operators below.
type Interp struct {
	Pos Bits // atoms true in I
	Neg Bits // atoms false in I
}

// NewInterp returns the empty interpretation over n atoms.
func NewInterp(n int) Interp { return Interp{Pos: NewBits(n), Neg: NewBits(n)} }

// GreatestUnfoundedSet computes UP(I), the greatest unfounded set of p
// relative to I (§2.6): the largest U ⊆ HBP such that for every a ∈ U and
// every rule with head a, either (i) some positive body atom is false in
// I ∪ ¬.U, or (ii) some negative body atom is true in I. It is obtained
// as the complement of the least "founded" set.
func GreatestUnfoundedSet(p *Program, i Interp) Bits {
	n := p.NumAtoms()
	blocked := make([]bool, len(p.Rules))
	for ri := range p.Rules {
		r := &p.Rules[ri]
		for _, b := range p.Neg(r) {
			if i.Pos.Get(b) {
				blocked[ri] = true
				break
			}
		}
		if !blocked[ri] {
			for _, b := range p.Pos(r) {
				if i.Neg.Get(b) {
					blocked[ri] = true
					break
				}
			}
		}
	}
	counts := make([]int32, len(p.Rules))
	queue := make([]int32, 0, n)
	founded := p.leastModel(blocked, NewBits(n), counts, queue)
	u := NewBits(n)
	for a := int32(0); int(a) < n; a++ {
		if !founded.Get(a) {
			u.Set(a)
		}
	}
	return u
}

// ImmediateConsequence computes TP(I) (§2.6): the heads of rules whose
// positive bodies are I-true and negative bodies I-false.
func ImmediateConsequence(p *Program, i Interp) Bits {
	out := NewBits(p.NumAtoms())
	for ri := range p.Rules {
		r := &p.Rules[ri]
		ok := true
		for _, b := range p.Pos(r) {
			if !i.Pos.Get(b) {
				ok = false
				break
			}
		}
		if ok {
			for _, b := range p.Neg(r) {
				if !i.Neg.Get(b) {
					ok = false
					break
				}
			}
		}
		if ok {
			out.Set(r.Head)
		}
	}
	return out
}

// WPStep applies the §2.6 operator once: WP(I) = TP(I) ∪ ¬.UP(I).
func WPStep(p *Program, i Interp) Interp {
	return Interp{Pos: ImmediateConsequence(p, i), Neg: GreatestUnfoundedSet(p, i)}
}
