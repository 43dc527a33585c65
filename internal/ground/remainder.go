package ground

// Remainder computes the well-founded model via the Brass–Dix program
// remainder (residual program): repeatedly simplify the ground program by
//
//   - success      delete a positive body literal whose atom is a fact;
//   - failure      delete a rule with a positive body literal whose atom
//     has no rules left;
//   - positive reduction   delete a negative body literal whose atom has
//     no rules left (it is certainly false);
//   - negative reduction   delete a rule with a negative body literal
//     whose atom is a fact (the literal is certainly false);
//   - loop detection       atoms underivable even in the positive
//     projection of the remaining rules are unfounded: delete every rule
//     positively depending on them (making them rule-less).
//
// At fixpoint, atoms that are facts are true, atoms without rules are
// false, and everything else is undefined. This is the fourth independent
// WFS algorithm of this package (after the alternating fixpoint, the §2.6
// WP iteration, and the Definition 7 ŴP iteration) and is cross-checked
// against them by the property tests.
func Remainder(p *Program) *Model {
	n := p.NumAtoms()
	// Mutable copy of the rules.
	type mrule struct {
		head    int32
		pos     []int32
		neg     []int32
		deleted bool
	}
	rules := make([]mrule, len(p.Rules))
	ruleCount := make([]int32, n) // live rules per head atom
	for ri := range p.Rules {
		r := &p.Rules[ri]
		rules[ri] = mrule{
			head: r.Head,
			pos:  append([]int32(nil), p.Pos(r)...),
			neg:  append([]int32(nil), p.Neg(r)...),
		}
		ruleCount[r.Head]++
	}
	isFact := func(a int32) bool {
		for ri := range rules {
			r := &rules[ri]
			if !r.deleted && r.head == a && len(r.pos) == 0 && len(r.neg) == 0 {
				return true
			}
		}
		return false
	}
	// Cheap incremental fact/failed tracking instead of rescans.
	fact := NewBits(n)
	updateFacts := func() bool {
		changed := false
		for a := int32(0); int(a) < n; a++ {
			if !fact.Get(a) && isFact(a) {
				fact.Set(a)
				changed = true
			}
		}
		return changed
	}
	failed := func(a int32) bool { return ruleCount[a] == 0 }

	deleteRule := func(ri int) {
		if !rules[ri].deleted {
			rules[ri].deleted = true
			ruleCount[rules[ri].head]--
		}
	}

	rounds := 0
	for {
		rounds++
		changed := updateFacts()
		for ri := range rules {
			r := &rules[ri]
			if r.deleted {
				continue
			}
			// Success + failure on positive literals.
			kept := r.pos[:0]
			for _, b := range r.pos {
				switch {
				case fact.Get(b):
					changed = true // drop the satisfied literal
				case failed(b):
					deleteRule(ri)
					changed = true
				default:
					kept = append(kept, b)
				}
				if r.deleted {
					break
				}
			}
			if r.deleted {
				continue
			}
			r.pos = kept
			// Positive + negative reduction on negative literals.
			keptN := r.neg[:0]
			for _, b := range r.neg {
				switch {
				case failed(b):
					changed = true // ¬b certainly holds: drop it
				case fact.Get(b):
					deleteRule(ri)
					changed = true
				default:
					keptN = append(keptN, b)
				}
				if r.deleted {
					break
				}
			}
			if r.deleted {
				continue
			}
			r.neg = keptN
		}
		// Loop detection: least model of the positive projection of the
		// live rules; underivable atoms are unfounded.
		derivable := NewBits(n)
		counts := make([]int32, len(rules))
		var queue []int32
		derive := func(a int32) {
			if !derivable.Get(a) {
				derivable.Set(a)
				queue = append(queue, a)
			}
		}
		posOcc := make(map[int32][]int32)
		for ri := range rules {
			r := &rules[ri]
			if r.deleted {
				counts[ri] = -1
				continue
			}
			counts[ri] = int32(len(r.pos))
			for _, b := range r.pos {
				posOcc[b] = append(posOcc[b], int32(ri))
			}
			if counts[ri] == 0 {
				derive(r.head)
			}
		}
		for len(queue) > 0 {
			a := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, ri := range posOcc[a] {
				if counts[ri] < 0 {
					continue
				}
				counts[ri]--
				if counts[ri] == 0 {
					derive(rules[ri].head)
				}
			}
		}
		for ri := range rules {
			r := &rules[ri]
			if r.deleted {
				continue
			}
			if !derivable.Get(r.head) {
				deleteRule(ri)
				changed = true
				continue
			}
			for _, b := range r.pos {
				if !derivable.Get(b) {
					deleteRule(ri)
					changed = true
					break
				}
			}
		}
		if !changed {
			break
		}
	}

	m := &Model{Prog: p, Truth: make([]Truth, n), Rounds: rounds}
	for a := int32(0); int(a) < n; a++ {
		switch {
		case fact.Get(a):
			m.Truth[a] = True
		case failed(a):
			m.Truth[a] = False
		default:
			m.Truth[a] = Undefined
		}
	}
	return m
}
