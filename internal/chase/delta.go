package chase

// Apply is the one continuation every chase runs: a write, a deepening,
// and a cold chase, which is Apply of the whole database to Empty. The
// guarded chase is monotone in the database (chase(D') ⊆ chase(D) for
// D' ⊆ D, and every rule firing over D remains a firing over D ∪ ∆) and
// in the depth cap (a deeper cut extends a shallower one), so each is one
// change to one forest, made in three steps on one copy of the per-atom
// state:
//
//   - the retracted facts go by DRed on the recorded forest, in the
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
//     which the result renumbers without the dead records;
//   - the added facts are derived at depth 0 and expanded against the
//     carried-over forest, waking parked waiters and cascading depth
//     decreases, while everything already derived stays derived (an
//     added atom the rules already derived, an IDB atom asserted as a
//     fact, drops to depth 0 and gets its fact record); and
//   - the depth cap rises and the frontier the old cap left unexpanded
//     is expanded, unless the chase saturated below the old cap.
//
// The receiver is left untouched, so models already built over it keep
// serving concurrent readers: Apply takes the arena's tail claim (or
// copies the arena) like any continuation, writes its record arrays
// afresh when it retracts, and never writes a shared one. The bodies and
// universe entries of dead records stay in the shared arrays as garbage
// until it exceeds a quarter of them; then the retraction compacts
// (compact).

import (
	"slices"

	"repro/internal/atom"
	"repro/internal/cancel"
	"repro/internal/program"
)

// Change reports what Apply changed in the ground program.
type Change struct {
	// Dead lists the positions in the receiver's Ground of the rule
	// instances that did not survive, in firing order.
	Dead []int32
	// Remap maps each position of the receiver's Ground to the record's
	// position in the result's, or to a negative value for a record that
	// died; the records after them are new. It is nil when nothing was
	// retracted, and when the retraction compacted the arena, which
	// renumbers the atoms too.
	Remap []int32
	// Seeds lists the global atoms whose ground rule set changed: the
	// retracted facts, the heads of the dead records, and the heads of
	// every record appended after the renumbering. ground.IncrementalModel
	// re-solves exactly their dependency cone.
	Seeds []atom.AtomID
	// Overdeleted counts the atoms the retraction took out of the derived
	// universe, Rederived the ones of them that came back, and Visited
	// the body occurrences the overdelete and rederive walks examined.
	// NewInstances counts the rule instances the additions and the
	// deepening fired.
	Overdeleted, Rederived, Visited, NewInstances int
	// Compacted reports that the result's arena was rebuilt without the
	// garbage earlier retractions left (see compact).
	Compacted bool
}

// Apply returns a new Result chasing newDB under the depth cap depth:
// r after the atoms of removed left the database and the atoms of added
// joined it (the set-level change from r.DB to newDB, every atom already
// interned in the store), and after the cap rose to depth — see the file
// comment. prog must share r's compiled rules and store; usually it is
// r.Prog. A depth at or below r's cap keeps the cap.
//
// The result keeps r's atom numbering unless a retraction compacts, and
// renumbers the surviving records densely in their old order. r is not
// mutated. tok (nil = never cancelled) is polled through the walks and
// the chase; a cancelled Apply returns a result with Interrupted set.
// Apply returns r itself, with an empty Change, when there is nothing to
// do: no fact changes, and a cap that does not rise, a truncated chase,
// or a saturated one. It returns (nil, nil) when r is truncated: MaxAtoms
// exhaustion left frontier atoms unexpanded, so no continuation can know
// what a from-scratch chase of newDB derives, and the caller must
// re-chase.
func (r *Result) Apply(prog *program.Program, newDB program.Database, removed, added []atom.AtomID, depth int, tok *cancel.Token) (*Result, *Change) {
	if len(removed) == 0 && len(added) == 0 && (depth <= r.Opts.MaxDepth || r.Truncated || r.saturated()) {
		return r, &Change{}
	}
	if r.Truncated {
		return nil, nil
	}
	opts := r.Opts
	opts.Cancel = tok
	nr := r.continuation(prog, opts, len(added))
	nr.DB = newDB
	ch := &Change{}
	if len(removed) > 0 {
		if nr = nr.retract(removed, ch); nr.Interrupted {
			return nr, ch
		}
		for _, rec := range ch.Dead {
			ch.Seeds = append(ch.Seeds, r.Head(rec))
		}
		ch.Seeds = append(ch.Seeds, removed...)
	}
	firstRec, firstInst := len(nr.Ground), len(nr.Instances)
	for _, a := range added {
		nr.derive(nr.intern(a), 0, 0)
	}
	nr.run()
	if oldDepth := nr.Opts.MaxDepth; depth > oldDepth && !nr.Truncated && !nr.Interrupted && !nr.saturated() {
		// The frontier: atoms derived at the old cap were never enqueued
		// for guard expansion. Under the raised cap they are expandable.
		nr.Opts.MaxDepth = depth
		for a, d := range nr.depth {
			if int(d) >= oldDepth && int(d) < depth {
				nr.enqueue(int32(a))
			}
		}
		nr.run()
	}
	ch.Seeds = slices.Grow(ch.Seeds, len(nr.Ground)-firstRec)
	for rec := firstRec; rec < len(nr.Ground); rec++ {
		ch.Seeds = append(ch.Seeds, nr.Head(int32(rec)))
	}
	ch.NewInstances = len(nr.Instances) - firstInst
	return nr, ch
}

// saturated reports that r has no frontier: it derived nothing at its
// cap and has nothing queued, so a deeper chase is identical.
func (r *Result) saturated() bool {
	return len(r.queue) == 0 && r.ComputeStats().MaxDepth < r.Opts.MaxDepth
}

// ExtendDB is Apply for additions alone, at r's cap; nil when r is
// truncated.
func (r *Result) ExtendDB(prog *program.Program, newDB program.Database, added []atom.AtomID) *Result {
	nr, _ := r.Apply(prog, newDB, nil, added, r.Opts.MaxDepth, nil)
	return nr
}

// Retract is Apply for the shrinkage from r.DB to newDB, at r's cap: it
// returns the result and the positions in r.Ground of the rule instances
// that did not survive, or (nil, nil) when r is truncated.
func (r *Result) Retract(prog *program.Program, newDB program.Database) (*Result, []int32) {
	_, removed := Diff(r.DB, newDB)
	nr, ch := r.Apply(prog, newDB, removed, nil, r.Opts.MaxDepth, nil)
	if nr == nil {
		return nil, nil
	}
	return nr, ch.Dead
}

// Diff computes the set-level difference between two database instances:
// atoms present in newDB but not oldDB (added, in newDB order) and present
// in oldDB but not newDB (removed, in oldDB order). Duplicate entries
// within either database are ignored — a fact that merely changed
// multiplicity is no chase-level change at all. Membership is two
// bitsets over the atom IDs: a mutation diffs two whole databases, and a
// bit test per fact keeps that to a few scans.
func Diff(oldDB, newDB program.Database) (added, removed []atom.AtomID) {
	n := atom.AtomID(0)
	for _, db := range []program.Database{oldDB, newDB} {
		for _, a := range db {
			n = max(n, a+1)
		}
	}
	inOld, inNew := make([]uint64, n/64+1), make([]uint64, n/64+1)
	has := func(b []uint64, a atom.AtomID) bool { return b[a/64]&(1<<(a%64)) != 0 }
	for _, a := range oldDB {
		inOld[a/64] |= 1 << (a % 64)
	}
	for _, a := range newDB {
		if !has(inNew, a) {
			inNew[a/64] |= 1 << (a % 64)
			if !has(inOld, a) {
				added = append(added, a)
			}
		}
	}
	for _, a := range oldDB {
		if !has(inNew, a) {
			inNew[a/64] |= 1 << (a % 64) // report a duplicate once
			removed = append(removed, a)
		}
	}
	return added, removed
}

// Record states during a retraction.
const (
	recLive uint8 = iota
	recKilled
	recRevived
)

// retract runs DRed for the atoms of removed on r, a continuation that
// has not run yet (see the file comment), filling ch's record map and
// counters. It returns r, or r compacted; a cancelled walk returns r
// with Interrupted set.
func (r *Result) retract(removed []atom.AtomID, ch *Change) *Result {
	r.records = recordLines.Add(1)
	x := &dred{Result: r, state: make([]uint8, len(r.Ground)), budget: cancelCheckInterval}
	// Overdelete: the fact records of the removed atoms die, and so does
	// every record with a dying atom in its positive body, transitively.
	// An atom that keeps a fact record keeps depth 0 and stays.
	for _, a := range removed {
		d := r.Local(a)
		if d < 0 || r.depth[d] != 0 {
			continue
		}
		for rec := r.firstHead[d]; rec >= 0; rec = r.headNext[rec] {
			if r.Ground[rec].Rule < 0 {
				x.kill(rec)
			}
		}
		x.overdelete(d)
	}
	for len(x.stack) > 0 {
		if x.cancelled() {
			return r
		}
		a := x.pop()
		for k := r.firstOcc[a]; k >= 0; k = r.occNext[k] {
			x.visited++
			rec := r.occRec[k]
			if rec < 0 || x.state[rec] != recLive || k >= r.Ground[rec].Neg {
				continue // dead already, or a negative occurrence
			}
			x.kill(rec)
			if h := r.Ground[rec].Head; r.depth[h] != 0 {
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
		r.countDepth(r.depth[h], -1)
		r.depth[h], r.level[h] = -1, -1
	}
	for _, h := range x.over {
		for rec := r.firstHead[h]; rec >= 0; rec = r.headNext[rec] {
			if x.state[rec] == recLive {
				x.revive(rec)
			}
		}
	}
	for len(x.stack) > 0 {
		if x.cancelled() {
			return r
		}
		a := x.pop()
		for k := r.firstOcc[a]; k >= 0; k = r.occNext[k] {
			x.visited++
			if rec := r.occRec[k]; rec >= 0 && x.state[rec] != recLive && k < r.Ground[rec].Neg {
				x.revive(rec)
			}
		}
	}
	ch.Overdeleted, ch.Visited = len(x.over), x.visited
	// Settle the overdeleted atoms: dead ones leave the derived universe,
	// and an atom that now sits at or past the cap is no longer expanded
	// (a deepening expands it afresh).
	var died []atom.AtomID
	lost := false
	for _, h := range x.over {
		r.flags[h] &^= flagOver
		switch {
		case r.depth[h] < 0:
			g := r.Universe[h]
			died = append(died, g)
			r.countTerm(g, -1)
			lost = lost || r.flags[h]&flagExpanded != 0
			r.flags[h] = r.flags[h]&^(flagExpanded|flagQueued) | flagDied
			r.orphanAtoms++
		case int(r.depth[h]) >= r.Opts.MaxDepth && r.flags[h]&flagExpanded != 0:
			r.flags[h] &^= flagExpanded
			lost = true
			fallthrough
		default:
			ch.Rederived++
		}
	}
	// Parked pairs whose guard is no longer expanded go: re-deriving or
	// deepening the guard matches its rules again.
	if lost {
		for sa, ws := range r.waiters {
			ws = slices.DeleteFunc(ws, func(w waiter) bool { return r.flags[w.guard]&flagExpanded == 0 })
			if len(ws) == 0 {
				delete(r.waiters, sa)
			} else {
				r.waiters[sa] = ws
			}
		}
	}
	x.renumber(ch)
	if len(died) > 0 {
		r.Atoms = dropAtoms(r.Atoms, died)
	}
	if 4*r.orphanSlots > len(r.Body) || 4*r.orphanAtoms > len(r.Universe) {
		r = r.compact()
		ch.Remap, ch.Compacted = nil, true
	}
	return r
}

// dred is the scratch state of one retraction over its result.
type dred struct {
	*Result
	state   []uint8 // per record of the receiver: recLive, recKilled, recRevived
	killed  []int32 // the records killed, revived or not
	over    []int32 // overdeleted atoms
	stack   []int32
	visited int // body occurrences walked
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
	x.Interrupted = x.Opts.Cancel.Cancelled()
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
// underived side atom, and fills ch's Dead and Remap.
func (x *dred) renumber(ch *Change) {
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
			ch.Dead = append(ch.Dead, rec)
		}
	}
	x.Ground, x.headNext, x.occRec, x.Instances = ground, headNext, occRec, insts
	ch.Remap = remap
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
	nr.perAtom = nr.clone(int(n))
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
	nr.Atoms = cloneSlack(r.Atoms, 0)
	for _, ws := range r.waiters {
		for i := range ws {
			ws[i].guard = keep[ws[i].guard]
		}
	}
	nr.waiters = r.waiters
	nr.depthHist, nr.termHist = r.depthHist, r.termHist
	return nr
}
