package ground

// leastModel computes the least model of the positive projection of the
// program restricted to non-blocked rules, using the linear-time counting
// construction. blocked[ri] marks rules excluded by the caller's treatment
// of negative bodies (the Gelfond–Lifschitz reduct or an operator-specific
// filter); negative literals of usable rules are dropped.
//
// The result is written into out (which is reset first) so callers can
// reuse buffers across fixpoint rounds.
func (p *Program) leastModel(blocked []bool, out Bits, counts []int32, queue []int32) Bits {
	out.Reset()
	queue = queue[:0]
	ix := p.index()
	derive := func(a int32) {
		if !out.Get(a) {
			out.Set(a)
			queue = append(queue, a)
		}
	}
	for ri := range p.Rules {
		if blocked[ri] {
			counts[ri] = -1
			continue
		}
		n := p.Rules[ri].Neg - p.Rules[ri].Off
		counts[ri] = n
		if n == 0 {
			derive(p.Rules[ri].Head)
		}
	}
	for len(queue) > 0 {
		a := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, ri := range ix.pos(a) {
			if counts[ri] < 0 {
				continue
			}
			counts[ri]--
			if counts[ri] == 0 {
				derive(p.Rules[ri].Head)
			}
		}
	}
	return out
}

// blockIfNegIn marks as blocked every rule with a negative body atom inside
// set S (the GL-reduct filter: the rule is deleted when some ¬b fails
// because b ∈ S).
func (p *Program) blockIfNegIn(s Bits, blocked []bool) {
	for ri := range p.Rules {
		blocked[ri] = false
		for _, b := range p.Neg(&p.Rules[ri]) {
			if s.Get(b) {
				blocked[ri] = true
				break
			}
		}
	}
}

// blockIfNegNotIn marks as blocked every rule having a negative body atom
// outside set N (the ŴP-positive filter: a forward proof may only use rules
// all of whose negative hypotheses are already known false, ¬.N(π) ⊆ I).
func (p *Program) blockIfNegNotIn(n Bits, blocked []bool) {
	for ri := range p.Rules {
		blocked[ri] = false
		for _, b := range p.Neg(&p.Rules[ri]) {
			if !n.Get(b) {
				blocked[ri] = true
				break
			}
		}
	}
}
