package chase

// Data-dimension continuations of a finished chase: the guarded chase is
// monotone in the database (chase(D') ⊆ chase(D) for D' ⊆ D, and every
// rule firing over D remains a firing over D ∪ ∆), so
//
//   - additions (ExtendDB) resume the existing chase exactly the way
//     Extend resumes it in depth — new EDB atoms seed fresh frontier work
//     against the carried-over forest, waking parked waiters and
//     cascading depth decreases, while everything already derived stays
//     derived; and
//   - retractions (RetractCancel) run DRed on the recorded forest, in the
//     receiver's own atom numbering. Overdelete walks forward from the
//     retracted facts through the body-occurrence links of the arena,
//     killing every record with a dying atom in its positive body and
//     taking its head out. Rederive brings an overdeleted atom back when
//     a record for it survives or revives — its positive body derived
//     again under an expandable guard — at the new minimal depth, under
//     the depth cap. A dead instance whose guard is still expanded parks
//     its (rule, guard) pair on a missing side atom again. No rule is
//     matched and no atom is interned: the work is the killed records
//     and their heads, plus memory-speed copies of the record arrays,
//     which the result renumbers without the dead records.
//
// Both operations leave the receiver untouched, like Extend, so models
// already built over it keep serving concurrent readers: a retraction
// takes the arena's tail claim (or copies the arena) like any
// continuation, writes its record arrays afresh, and never writes a
// shared one. The bodies and universe entries of dead records stay in the
// shared arrays as garbage until it exceeds a quarter of them; then the
// retraction compacts (compact).

import (
	"slices"

	"repro/internal/atom"
	"repro/internal/cancel"
	"repro/internal/program"
)

// ExtendDB returns a new Result that continues this chase after the
// database grew to newDB: the atoms of added (the set-level growth, each
// already interned in the store) are derived at depth 0 and expanded
// against the carried-over forest, firing only the rule instances the new
// facts enable. prog must share r's compiled rules and store (see
// Extend). r itself is not mutated.
//
// An added atom may already be in the derived universe (an IDB atom now
// asserted as a fact): its depth drops to 0 and the decrease cascades.
// Returns nil when r is truncated — MaxAtoms exhaustion left frontier
// atoms unexpanded, so the continuation cannot know what a from-scratch
// chase of the grown database would derive; callers must rebuild.
func (r *Result) ExtendDB(prog *program.Program, newDB program.Database, added []atom.AtomID) *Result {
	return r.ExtendDBCancel(prog, newDB, added, nil)
}

// ExtendDBCancel is ExtendDB under a cancellation token (nil = never
// cancelled); a cancelled continuation returns with Interrupted set.
func (r *Result) ExtendDBCancel(prog *program.Program, newDB program.Database, added []atom.AtomID, tok *cancel.Token) *Result {
	if r.Truncated {
		return nil
	}
	opts := r.Opts
	opts.Cancel = tok
	nr := r.continuation(prog, opts)
	nr.DB = newDB
	for _, a := range added {
		nr.derive(nr.intern(a), 0, 0)
	}
	nr.run()
	return nr
}

// Retraction reports what RetractCancel changed.
type Retraction struct {
	// Dead lists the positions in the receiver's Ground of the rule
	// instances that did not survive, in firing order.
	Dead []int32
	// Remap maps each position of the receiver's Ground to the record's
	// position in the result's, or to a negative value for a record that
	// died. It is nil when the retraction compacted the arena, which
	// renumbers the atoms too.
	Remap []int32
	// Overdeleted counts the atoms the retraction took out of the derived
	// universe, Rederived the ones of them that came back, and Visited
	// the body occurrences the overdelete and rederive walks examined.
	Overdeleted, Rederived, Visited int
	// Compacted reports that the result's arena was rebuilt without the
	// garbage earlier retractions left (see compact).
	Compacted bool
}

// Retract returns a new Result chasing the shrunken database newDB (a
// subset of r.DB at the set level), together with the positions in
// r.Ground of the rule instances that did not survive. It is
// RetractCancel with the removed atoms computed from the two databases.
// Returns (nil, nil) when r is truncated, in which case the instance set
// is incomplete and the caller must re-chase from scratch.
func (r *Result) Retract(prog *program.Program, newDB program.Database) (*Result, []int32) {
	keep := make(map[atom.AtomID]bool, len(newDB))
	for _, a := range newDB {
		keep[a] = true
	}
	var removed []atom.AtomID
	for _, a := range r.DB {
		if !keep[a] {
			keep[a] = true // report a duplicate once
			removed = append(removed, a)
		}
	}
	nr, ret := r.RetractCancel(prog, newDB, removed, nil)
	if nr == nil {
		return nil, nil
	}
	return nr, ret.Dead
}

// Record states during a retraction.
const (
	recLive uint8 = iota
	recKilled
	recRevived
)

// RetractCancel continues r after the atoms of removed (the set-level
// shrinkage from r.DB to newDB) left the database, by DRed on the
// forest — see the file comment. The result keeps r's atom numbering
// and renumbers the surviving records densely in their old order. r is
// not mutated. tok (nil = never cancelled) is polled through the
// overdelete and rederive walks; a cancelled retraction returns a result
// with Interrupted set. Returns (nil, nil) when r is truncated.
func (r *Result) RetractCancel(prog *program.Program, newDB program.Database, removed []atom.AtomID, tok *cancel.Token) (*Result, *Retraction) {
	if r.Truncated {
		return nil, nil
	}
	opts := r.Opts
	opts.Cancel = tok
	nr := r.continuation(prog, opts)
	nr.DB = newDB
	nr.records = recordLines.Add(1)
	x := &dred{Result: nr, state: make([]uint8, len(nr.Ground)), tok: tok, budget: cancelCheckInterval}

	// Overdelete: the fact records of the removed atoms die, and so does
	// every record with a dying atom in its positive body, transitively.
	// An atom that keeps a fact record keeps depth 0 and stays.
	for _, a := range removed {
		d := nr.Local(a)
		if d < 0 || nr.depth[d] != 0 || nr.flags[d]&flagProgFact != 0 {
			continue
		}
		for rec := nr.firstHead[d]; rec >= 0; rec = nr.headNext[rec] {
			if nr.Ground[rec].Rule < 0 {
				x.kill(rec)
			}
		}
		x.overdelete(d)
	}
	for len(x.stack) > 0 {
		if x.cancelled() {
			return nr, &Retraction{}
		}
		a := x.pop()
		for k := nr.firstOcc[a]; k >= 0; k = nr.occNext[k] {
			x.visited++
			rec := nr.occRec[k]
			if rec < 0 || x.state[rec] != recLive || k >= nr.Ground[rec].Neg {
				continue // dead already, or a negative occurrence
			}
			x.kill(rec)
			if h := nr.Ground[rec].Head; nr.depth[h] != 0 {
				x.overdelete(h)
			}
		}
	}

	// Rederive: an overdeleted atom with a surviving record comes back
	// at the depth that record gives it, and every killed record whose
	// positive body is derived again, under an expandable guard, revives
	// and rederives its head. Depths settle by label correction, as in
	// derive's cascade.
	for _, h := range x.over {
		nr.countDepth(nr.depth[h], -1)
		nr.depth[h], nr.level[h] = -1, -1
	}
	for _, h := range x.over {
		for rec := nr.firstHead[h]; rec >= 0; rec = nr.headNext[rec] {
			if x.state[rec] == recLive {
				x.revive(rec)
			}
		}
	}
	for len(x.stack) > 0 {
		if x.cancelled() {
			return nr, &Retraction{}
		}
		a := x.pop()
		for k := nr.firstOcc[a]; k >= 0; k = nr.occNext[k] {
			x.visited++
			if rec := nr.occRec[k]; rec >= 0 && x.state[rec] != recLive && k < nr.Ground[rec].Neg {
				x.revive(rec)
			}
		}
	}
	ret := &Retraction{Overdeleted: len(x.over), Visited: x.visited}
	// Settle the overdeleted atoms: dead ones leave the derived universe,
	// and an atom that now sits at or past the cap is no longer expanded
	// (a deepening expands it afresh).
	var died []atom.AtomID
	lost := false
	for _, h := range x.over {
		nr.flags[h] &^= flagOver
		switch {
		case nr.depth[h] < 0:
			g := nr.Universe[h]
			died = append(died, g)
			nr.countTerm(g, -1)
			lost = lost || nr.flags[h]&flagExpanded != 0
			nr.flags[h] = nr.flags[h]&^(flagExpanded|flagQueued) | flagDied
			nr.orphanAtoms++
		case int(nr.depth[h]) >= nr.Opts.MaxDepth && nr.flags[h]&flagExpanded != 0:
			nr.flags[h] &^= flagExpanded
			lost = true
			fallthrough
		default:
			ret.Rederived++
		}
	}
	// Parked pairs whose guard is no longer expanded go: re-deriving or
	// deepening the guard matches its rules again.
	if lost {
		for sa, ws := range nr.waiters {
			ws = slices.DeleteFunc(ws, func(w waiter) bool { return nr.flags[w.guard]&flagExpanded == 0 })
			if len(ws) == 0 {
				delete(nr.waiters, sa)
			} else {
				nr.waiters[sa] = ws
			}
		}
	}
	x.renumber(ret)
	if len(died) > 0 {
		nr.Atoms = dropAtoms(nr.Atoms, died)
	}
	if 4*nr.orphanSlots > len(nr.Body) || 4*nr.orphanAtoms > len(nr.Universe) {
		nr = nr.compact()
		ret.Remap, ret.Compacted = nil, true
	}
	return nr, ret
}

// dred is the scratch state of one retraction over its result.
type dred struct {
	*Result
	state   []uint8 // per record of the receiver: recLive, recKilled, recRevived
	killed  []int32 // the records killed, revived or not
	over    []int32 // overdeleted atoms
	stack   []int32
	visited int // body occurrences walked
	tok     *cancel.Token
	budget  int
}

func (x *dred) overdelete(d int32) {
	if x.flags[d]&flagOver == 0 {
		x.flags[d] |= flagOver
		x.over = append(x.over, d)
		x.stack = append(x.stack, d)
	}
}

func (x *dred) kill(rec int32) {
	x.state[rec] = recKilled
	x.killed = append(x.killed, rec)
}

func (x *dred) pop() int32 {
	a := x.stack[len(x.stack)-1]
	x.stack = x.stack[:len(x.stack)-1]
	return a
}

// cancelled polls the token every cancelCheckInterval calls, marking
// the result interrupted when it tripped.
func (x *dred) cancelled() bool {
	if x.budget--; x.budget > 0 {
		return false
	}
	x.budget = cancelCheckInterval
	x.Interrupted = x.tok.Cancelled()
	return x.Interrupted
}

// revive re-fires instance record rec when its guard is derived under
// the cap and its positive side atoms are derived, lowering its head's
// depth to what the guard gives. (An overdeleted atom has no live fact
// record: it is a retracted fact, or it was never at depth 0.)
func (x *dred) revive(rec int32) {
	in := &x.Ground[rec]
	g := x.Body[in.Off]
	if x.depth[g] < 0 || int(x.depth[g]) >= x.Opts.MaxDepth {
		return
	}
	level := x.level[g]
	for _, b := range x.Body[in.Off+1 : in.Neg] {
		if x.depth[b] < 0 {
			return
		}
		level = max(level, x.level[b])
	}
	if x.state[rec] == recKilled {
		x.state[rec] = recRevived
	}
	x.rederive(in.Head, x.depth[g]+1, level+1)
}

// rederive is derive for the atoms a retraction overdeleted: it records
// a depth (or a lower one) and queues the atom for the walk over the
// killed records it may revive.
func (x *dred) rederive(h, depth, level int32) {
	if old := x.depth[h]; old < 0 || depth < old {
		if old >= 0 {
			x.countDepth(old, -1)
		}
		x.countDepth(depth, 1)
		x.depth[h] = depth
		x.stack = append(x.stack, h)
	}
	if x.level[h] < 0 || level < x.level[h] {
		x.level[h] = level
	}
}

// renumber drops the dead records: it writes the result's record arrays
// afresh (the receiver's stay as they are), re-parks the (rule, guard)
// pair of every dead instance whose guard is still expanded on its first
// underived side atom, and fills ret's Dead and Remap.
func (x *dred) renumber(ret *Retraction) {
	dead := slices.DeleteFunc(x.killed, func(rec int32) bool { return x.state[rec] != recKilled })
	slices.Sort(dead)
	// Live records keep their order, so every run between two dead ones
	// moves down by the dead records before it, and the prefix before
	// the first stays in place. A dead record j maps to -2 minus the new
	// position of the newest live record down its head chain, so
	// following a chain through it is one lookup.
	n := len(x.Ground)
	live := n - len(dead)
	remap := make([]int32, n)
	ground := make([]Instance, live, live+live/4+64)
	headNext := make([]int32, live, cap(ground))
	first := n
	if len(dead) > 0 {
		first = int(dead[0])
	}
	copy(ground, x.Ground[:first])
	copy(headNext, x.headNext[:first])
	for i := range first {
		remap[i] = int32(i)
	}
	for di, d := range dead {
		in := x.Ground[d]
		remap[d] = -chainNext(remap, x.headNext[d]) - 2
		x.orphanSlots += int(in.End - in.Off)
		// An underived atom only negated may have lost its last mention.
		for _, b := range x.Body[in.Neg:in.End] {
			if x.depth[b] < 0 && x.flags[b]&flagDied == 0 {
				x.flags[b] |= flagDied
				x.orphanAtoms++
			}
		}
		if in.Rule >= 0 {
			x.repark(in)
		}
		end := n
		if di+1 < len(dead) {
			end = int(dead[di+1])
		}
		w := int(d) - di // where the run after d lands
		copy(ground[w:], x.Ground[d+1:end])
		for i := int(d) + 1; i < end; i++ {
			remap[i] = int32(w)
			headNext[w] = chainNext(remap, x.headNext[i])
			w++
		}
	}
	for a, rec := range x.firstHead {
		if int(rec) >= first {
			x.firstHead[a] = chainNext(remap, rec)
		}
	}
	// Slots and instances come in record order, so the ones before the
	// first dead record stay as they are.
	occRec := make([]int32, len(x.occRec), cap(x.occRec))
	insts := make([]int32, 0, cap(ground))
	k, i := len(x.occRec), len(x.Instances)
	if first < n {
		k = int(x.Ground[first].Off)
		i, _ = slices.BinarySearch(x.Instances, int32(first))
	}
	copy(occRec, x.occRec[:k])
	for ; k < len(occRec); k++ {
		if rec := x.occRec[k]; rec >= 0 {
			occRec[k] = max(remap[rec], -1)
		} else {
			occRec[k] = -1
		}
	}
	insts = append(insts, x.Instances[:i]...)
	for _, rec := range x.Instances[i:] {
		if remap[rec] >= 0 {
			insts = append(insts, remap[rec])
		} else {
			ret.Dead = append(ret.Dead, rec)
		}
	}
	x.Ground, x.headNext, x.occRec, x.Instances = ground, headNext, occRec, insts
	ret.Remap = remap
}

// chainNext returns the new position of the newest live record of a
// head chain from record j on, or -1; remap must be filled up to j.
func chainNext(remap []int32, j int32) int32 {
	switch {
	case j < 0:
		return -1
	case remap[j] >= 0:
		return remap[j]
	default:
		return -remap[j] - 2
	}
}

// repark puts the (rule, guard) pair of dead instance in back on the
// waiter list, on its first underived side atom, when its guard is still
// expanded; a pair under a dead or capped guard is matched again when
// the guard is.
func (x *dred) repark(in Instance) {
	g := x.Body[in.Off]
	if x.depth[g] < 0 || int(x.depth[g]) >= x.Opts.MaxDepth {
		return
	}
	for _, b := range x.Body[in.Off+1 : in.Neg] {
		if x.depth[b] < 0 {
			sa := x.Universe[b]
			x.waiters[sa] = append(x.waiters[sa], waiter{rule: x.Prog.Rules[in.Rule], guard: g})
			return
		}
	}
}

// dropAtoms returns a copy of atoms without the atoms of died, in order.
func dropAtoms(atoms, died []atom.AtomID) []atom.AtomID {
	hi := slices.Max(died)
	dead := make([]uint64, hi/64+1)
	for _, g := range died {
		dead[g/64] |= 1 << (g % 64)
	}
	out := make([]atom.AtomID, 0, cap(atoms))
	from := 0
	for i, g := range atoms {
		if g <= hi && dead[g/64]&(1<<(g%64)) != 0 {
			out = append(out, atoms[from:i]...)
			from = i + 1
		}
	}
	return append(out, atoms[from:]...)
}

// compact returns r rebuilt without the garbage of its retractions: the
// live records alone, over the atoms that are derived or that a live
// record mentions, renumbered densely in their old order. It runs once
// the garbage exceeds a quarter of the arena, so a sequence of
// retractions pays amortised time per dead record. The result starts a
// new numbering: it shares no memory with r, whose arrays a retraction
// wrote privately (its Body and Universe are read, never written).
func (r *Result) compact() *Result {
	keep := make([]int32, len(r.Universe))
	for d, dep := range r.depth {
		if dep >= 0 {
			keep[d] = 1
		}
	}
	body := 0
	for _, in := range r.Ground {
		keep[in.Head] = 1
		for _, b := range r.Body[in.Off:in.End] {
			keep[b] = 1
		}
		body += int(in.End - in.Off)
	}
	n := int32(0)
	for d, k := range keep {
		if k == 0 {
			keep[d] = -1
			continue
		}
		keep[d] = n
		n++
	}
	nr := newResult(r.Prog, r.DB, r.Opts, int(n), len(r.Ground), body)
	for d, k := range keep {
		if k < 0 {
			continue
		}
		g := r.Universe[d]
		nr.Universe = append(nr.Universe, g)
		nr.index = nr.index.put(g, k)
		nr.depth = append(nr.depth, r.depth[d])
		nr.level = append(nr.level, r.level[d])
		nr.firstHead = append(nr.firstHead, -1)
		nr.firstOcc = append(nr.firstOcc, -1)
		nr.flags = append(nr.flags, r.flags[d]&^flagDied)
	}
	for _, in := range r.Ground {
		off := len(nr.Body)
		for _, b := range r.Body[in.Off:in.End] {
			nr.Body = append(nr.Body, keep[b])
		}
		nr.record(keep[in.Head], in.Rule, off, off+int(in.Neg-in.Off))
	}
	nr.Atoms = cloneSlack(r.Atoms)
	for _, ws := range r.waiters {
		for i := range ws {
			ws[i].guard = keep[ws[i].guard]
		}
	}
	nr.waiters = r.waiters
	nr.depthHist, nr.termHist = r.depthHist, r.termHist
	return nr
}
