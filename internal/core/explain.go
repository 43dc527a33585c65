package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/atom"
	"repro/internal/ground"
)

// ProofNode is one node of a forward proof π (Definition 5): a derived
// atom together with the ground rule instance that derived it and proofs
// of the instance's positive body atoms. Nodes are shared (the proof is a
// DAG rendered as a forest), mirroring condition 3 of Definition 5: every
// positive body atom has a proof at a strictly smaller derivation level.
type ProofNode struct {
	Atom atom.AtomID
	// Inst indexes Model.Chase.Instances; -1 marks a database fact
	// (a root of F+(P)).
	Inst     int32
	Children []*ProofNode // proofs of the instance's positive body atoms
}

// ForwardProof is a forward proof of Goal from P with negative hypotheses
// (Definition 5): a finite sub-derivation of F+(P) whose rules' negative
// body atoms — the set N(π) — are all false in the well-founded model
// (¬.N(π) ⊆ WFS), witnessing membership of the goal in WFS(P).
type ForwardProof struct {
	Goal *ProofNode
	// NegHypotheses is N(π): the negative body atoms of all rules used.
	NegHypotheses []atom.AtomID
}

// PrepareExplanations materializes the lazily-computed proof ranks, after
// which Explain performs no writes to the model. It is guarded by a
// per-model sync.Once, so any number of goroutines — including readers of
// different snapshots sharing one rebased model — may call it before
// Explain without coordination.
func (m *Model) PrepareExplanations() {
	m.ranksOnce.Do(func() { m.proofRanks() })
}

// Explain constructs a forward proof of a true atom from the model,
// choosing for every atom a supporting instance whose positive body was
// derived strictly earlier (so the proof is well-founded, never circular).
// It returns false when the atom is not true in the model.
func (m *Model) Explain(a atom.AtomID) (*ForwardProof, bool) {
	if m.Truth(a) != ground.True {
		return nil, false
	}
	_, support := m.proofRanks()
	gp := m.GP
	nodes := make(map[int32]*ProofNode)
	negSet := make(map[atom.AtomID]bool)
	var build func(l int32) *ProofNode
	build = func(l int32) *ProofNode {
		if n, ok := nodes[l]; ok {
			return n
		}
		n := &ProofNode{Atom: gp.Atoms[l], Inst: support[l]}
		nodes[l] = n
		if n.Inst < 0 {
			return n // database fact
		}
		in := &gp.Rules[m.Chase.Instances[n.Inst]]
		for _, b := range gp.Neg(in) {
			negSet[gp.Atoms[b]] = true
		}
		for _, b := range gp.Pos(in) {
			n.Children = append(n.Children, build(b))
		}
		return n
	}
	local := gp.Local(a)
	goal := build(local)

	neg := make([]atom.AtomID, 0, len(negSet))
	for b := range negSet {
		neg = append(neg, b)
	}
	sort.Slice(neg, func(i, j int) bool { return neg[i] < neg[j] })
	return &ForwardProof{Goal: goal, NegHypotheses: neg}, true
}

// proofRanks replays the positive closure of the WFS-true atoms: using
// only instances whose negative body atoms are WFS-false, it derives every
// true atom in rounds and records, per true atom, the first instance that
// supported it (its positive body fully derived in earlier rounds).
// Database facts get support -1. The result is cached per model.
func (m *Model) proofRanks() (ranks []int32, support []int32) {
	if m.ranks != nil {
		return m.ranks, m.support
	}
	gp := m.GP
	n := gp.NumAtoms()
	ranks = make([]int32, n)
	support = make([]int32, n)
	for i := range ranks {
		ranks[i] = -1
		support[i] = -2 // unsupported
	}
	// Usable instances: negative bodies all false in the model, heads
	// true (we only explain true atoms). Fact records rank 0.
	type inst struct {
		idx  int32 // into Chase.Instances
		head int32
		need int
	}
	var usable []inst
	occ := make(map[int32][]int32) // atom → usable-instance indexes
	truth := m.GM.Truth
	for ri := range gp.Rules {
		in := &gp.Rules[ri]
		if in.Rule < 0 {
			ranks[in.Head] = 0
			support[in.Head] = -1
		}
	}
	for ii, ri := range m.Chase.Instances {
		in := &gp.Rules[ri]
		if truth[in.Head] != ground.True {
			continue
		}
		ok := true
		for _, b := range gp.Neg(in) {
			if truth[b] != ground.False {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		pos := gp.Pos(in)
		ui := int32(len(usable))
		usable = append(usable, inst{idx: int32(ii), head: in.Head, need: len(pos)})
		for _, b := range pos {
			occ[b] = append(occ[b], ui)
		}
	}
	// Seed queue with already-ranked atoms, then propagate in rounds.
	queue := make([]int32, 0, n)
	for i := int32(0); int(i) < n; i++ {
		if ranks[i] == 0 {
			queue = append(queue, i)
		}
	}
	// Count down positive bodies as their atoms are derived.
	counts := make([]int, len(usable))
	for ui := range usable {
		counts[ui] = usable[ui].need
		if counts[ui] == 0 && support[usable[ui].head] == -2 {
			support[usable[ui].head] = usable[ui].idx
			ranks[usable[ui].head] = 1
			queue = append(queue, usable[ui].head)
		}
	}
	for len(queue) > 0 {
		a := queue[0]
		queue = queue[1:]
		for _, ui := range occ[a] {
			counts[ui]--
			if counts[ui] == 0 {
				h := usable[ui].head
				if support[h] == -2 {
					support[h] = usable[ui].idx
					ranks[h] = ranks[a] + 1
					queue = append(queue, h)
				}
			}
		}
	}
	m.ranks, m.support = ranks, support
	return ranks, support
}

// Render prints the proof as an indented derivation with the negative
// hypotheses listed last (the format used by wfsquery -explain).
func (p *ForwardProof) Render(st *atom.Store) string {
	var b strings.Builder
	seen := make(map[*ProofNode]bool)
	var rec func(n *ProofNode, depth int)
	rec = func(n *ProofNode, depth int) {
		fmt.Fprintf(&b, "%s%s", strings.Repeat("  ", depth), st.String(n.Atom))
		if n.Inst < 0 {
			b.WriteString("   [database fact]")
		}
		if seen[n] && len(n.Children) > 0 {
			b.WriteString("   [shown above]\n")
			return
		}
		seen[n] = true
		b.WriteByte('\n')
		for _, c := range n.Children {
			rec(c, depth+1)
		}
	}
	rec(p.Goal, 0)
	if len(p.NegHypotheses) > 0 {
		b.WriteString("negative hypotheses N(π), all false in WFS:\n")
		for _, h := range p.NegHypotheses {
			fmt.Fprintf(&b, "  not %s\n", st.String(h))
		}
	}
	return b.String()
}

// BlockedInstance explains why one candidate derivation of a false atom
// cannot fire: the blocking literal and its truth value.
type BlockedInstance struct {
	Inst    int32
	Blocker atom.AtomID
	// Negative reports the blocker was a negative body atom (true in the
	// model); otherwise it is a positive body atom that is not true.
	Negative     bool
	BlockerTruth ground.Truth
}

// ExplainFalse explains why an atom is false: either it was never derived
// by the bounded chase (no forward proof exists at all), or every ground
// instance deriving it is blocked. The second return distinguishes the
// two cases: false means "not in the universe".
func (m *Model) ExplainFalse(a atom.AtomID) ([]BlockedInstance, bool) {
	gp := m.GP
	l := gp.Local(a)
	if l < 0 {
		return nil, false
	}
	var out []BlockedInstance
	for ii, ri := range m.Chase.Instances {
		in := &gp.Rules[ri]
		if in.Head != l {
			continue
		}
		bi := BlockedInstance{Inst: int32(ii), Blocker: atom.NoAtom}
		for _, b := range gp.Neg(in) {
			if m.GM.Truth[b] == ground.True {
				bi.Blocker, bi.Negative, bi.BlockerTruth = gp.Atoms[b], true, ground.True
				break
			}
		}
		if bi.Blocker == atom.NoAtom {
			for _, b := range gp.Pos(in) {
				if t := m.GM.Truth[b]; t != ground.True {
					bi.Blocker, bi.Negative, bi.BlockerTruth = gp.Atoms[b], false, t
					break
				}
			}
		}
		out = append(out, bi)
	}
	return out, true
}
