package ground

import "sync"

// Condensation of the ground program's atom dependency graph.
//
// The dependency graph has one node per atom and, for every rule, an edge
// from the head to each body atom (positive and negative alike): the head
// depends on its body. Tarjan's algorithm condenses it into strongly
// connected components; because Tarjan emits a component only after every
// component reachable from it, the emission order lists dependencies
// before dependents, so component IDs are already a bottom-up evaluation
// order (the splitting-theorem order SolveModular and IncrementalModel
// rely on).
//
// A component with no internal negative edge cannot lie on a negation
// cycle — a negative edge inside an SCC is on a cycle by definition — so
// its well-founded truths follow from the boundary values in a single
// definite/possible least-fixpoint pair (see solveCheap). Only components
// with an internal negative edge ("hard" components) need a genuine WFS
// fixpoint.
//
// All grouped data (a component's atoms and rules, a level's components)
// is stored in CSR form — one flat pointer-free int32 array plus offsets,
// read through the *Of accessors — rather than as slices of slices: tens
// of thousands of slice headers are exactly the allocation and GC-scan
// load the arena-backed grounding was built to avoid.
type Condensation struct {
	// Comp maps each atom to its component; components are numbered in
	// topological order, dependencies first.
	Comp []int32
	// PosInComp maps each atom to its position within AtomsOf(Comp[a]):
	// the dense local index the modular solver grounds subprograms with.
	PosInComp []int32
	// NegCycle marks components with an internal negative edge (a rule
	// whose head and some negative body atom share the component).
	NegCycle []bool
	// Level is the topological level: 0 for components with no
	// dependencies, otherwise 1 + the maximum level of any dependency.
	// Components on one level never depend on each other (a dependency
	// forces a strictly smaller level), so a level is a parallel batch.
	Level []int32
	// LargestComp is the size (in atoms) of the largest component.
	LargestComp int
	// NumHard counts components with NegCycle set.
	NumHard int

	atomOff, atomList []int32 // AtomsOf: component → its atoms
	ruleOff, ruleList []int32 // RulesOf: component → rules headed in it
	lvlOff, lvlList   []int32 // CompsAtLevel: level → its components
}

// NumComps returns the number of components.
func (c *Condensation) NumComps() int { return len(c.atomOff) - 1 }

// CompSize returns the number of atoms in component ci.
func (c *Condensation) CompSize(ci int32) int {
	return int(c.atomOff[ci+1] - c.atomOff[ci])
}

// NumLevels returns the number of topological levels.
func (c *Condensation) NumLevels() int { return len(c.lvlOff) - 1 }

// AtomsOf lists component ci's atoms, indexed by PosInComp.
func (c *Condensation) AtomsOf(ci int32) []int32 {
	return c.atomList[c.atomOff[ci]:c.atomOff[ci+1]]
}

// RulesOf lists the rules whose head lies in component ci.
func (c *Condensation) RulesOf(ci int32) []int32 {
	return c.ruleList[c.ruleOff[ci]:c.ruleOff[ci+1]]
}

// CompsAtLevel lists the components of one topological level.
func (c *Condensation) CompsAtLevel(l int) []int32 {
	return c.lvlList[c.lvlOff[l]:c.lvlOff[l+1]]
}

// prefixCSR turns per-key counts (in place) into CSR start offsets: on
// return counts[k] is the start offset of key k (usable as the fill
// cursor) and off[k]/off[k+1] bound key k's range. off must have
// len(counts)+1 entries. It returns the total count.
func prefixCSR(counts, off []int32) int {
	sum := int32(0)
	for k, c := range counts {
		off[k] = sum
		counts[k] = sum
		sum += c
	}
	off[len(counts)] = sum
	return int(sum)
}

// condScratch is the transient working memory of one condensation —
// adjacency and Tarjan state — recycled through a pool so a condensation
// allocates (and zeroes) only what it retains.
type condScratch struct {
	buf     []int32
	onstack Bits
}

var condScratchPool = sync.Pool{New: func() any { return &condScratch{} }}

// condense builds the condensation of p's atom dependency graph; it is a
// pure function of the program, and Program.Condensation caches it.
//
// Construction is allocation-lean: all transient working memory comes
// from a pooled arena, and the retained arrays are carved out of one
// exactly bounded arena.
func condense(p *Program) *Condensation {
	n := p.NumAtoms()
	if n == 0 {
		z := []int32{0}
		return &Condensation{atomOff: z, ruleOff: z, lvlOff: []int32{0, 0}}
	}
	nr := len(p.Rules)
	ne := 0
	for ri := range p.Rules {
		ne += int(p.Rules[ri].End - p.Rules[ri].Off)
	}
	// Retained arena (worst-case bounds: ncomp ≤ n, maxLevel+1 ≤ ncomp).
	arenaSize := 8*n + nr + 4
	arena := make([]int32, arenaSize)
	take := func(k int) []int32 {
		s := arena[:k:k]
		arena = arena[k:]
		return s
	}
	// Pooled scratch: deg, adj, Tarjan state.
	sc := condScratchPool.Get().(*condScratch)
	defer condScratchPool.Put(sc)
	if need := 7*n + 1 + ne; cap(sc.buf) < need {
		sc.buf = make([]int32, need)
	}
	stake := func(k int) []int32 {
		s := sc.buf[:k:k]
		sc.buf = sc.buf[k:]
		return s
	}
	bufAll := sc.buf
	defer func() { sc.buf = bufAll }()

	c := &Condensation{Comp: take(n), PosInComp: take(n)}
	deg := stake(n + 1) // CSR adjacency offsets, head → body; deg[a] = start of a
	adj := stake(ne)
	cnt0 := stake(n)
	{
		cnt := cnt0
		for i := range cnt {
			cnt[i] = 0
		}
		for ri := range p.Rules {
			r := &p.Rules[ri]
			cnt[r.Head] += r.End - r.Off
		}
		prefixCSR(cnt, deg)
		for ri := range p.Rules {
			r := &p.Rules[ri]
			h := r.Head
			for _, b := range p.body[r.Off:r.End] {
				adj[cnt[h]] = b
				cnt[h]++
			}
		}
	}

	// Iterative Tarjan. index holds 1-based visit numbers (0 = unvisited,
	// so the recycled scratch must be re-zeroed); the DFS spine lives in
	// parallel vStack/eiStack arrays.
	index := stake(n)
	for i := range index {
		index[i] = 0
	}
	low := stake(n)
	stack := stake(n)[:0]
	vStack := stake(n)[:0]
	eiStack := stake(n)[:0]
	if sc.onstack == nil || len(sc.onstack) < (n+63)/64 {
		sc.onstack = NewBits(n)
	} else {
		sc.onstack.Reset()
	}
	onstack := sc.onstack
	next := int32(1)
	ncomp := int32(0)
	for s := 0; s < n; s++ {
		if index[s] != 0 {
			continue
		}
		v0 := int32(s)
		index[v0], low[v0] = next, next
		next++
		stack = append(stack, v0)
		onstack.Set(v0)
		vStack = append(vStack, v0)
		eiStack = append(eiStack, deg[v0])
		for len(vStack) > 0 {
			v := vStack[len(vStack)-1]
			if ei := eiStack[len(eiStack)-1]; ei < deg[v+1] {
				w := adj[ei]
				eiStack[len(eiStack)-1]++
				if index[w] == 0 {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onstack.Set(w)
					vStack = append(vStack, w)
					eiStack = append(eiStack, deg[w])
				} else if onstack.Get(w) && index[w] < low[v] {
					low[v] = index[w]
				}
				continue
			}
			vStack = vStack[:len(vStack)-1]
			eiStack = eiStack[:len(eiStack)-1]
			if len(vStack) > 0 {
				if pv := vStack[len(vStack)-1]; low[v] < low[pv] {
					low[pv] = low[v]
				}
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onstack.Clear(w)
					c.Comp[w] = ncomp
					if w == v {
						break
					}
				}
				ncomp++
			}
		}
	}

	// Group atoms by component (CSR). low is dead after Tarjan; reuse it
	// as the counts-then-cursor scratch.
	cnt := low[:ncomp]
	for i := range cnt {
		cnt[i] = 0
	}
	for a := 0; a < n; a++ {
		cnt[c.Comp[a]]++
	}
	c.atomOff = take(int(ncomp) + 1)
	c.atomList = take(n)
	prefixCSR(cnt, c.atomOff)
	for a := int32(0); int(a) < n; a++ {
		ci := c.Comp[a]
		c.PosInComp[a] = cnt[ci] - c.atomOff[ci]
		c.atomList[cnt[ci]] = a
		cnt[ci]++
	}
	for ci := int32(0); ci < ncomp; ci++ {
		if sz := c.CompSize(ci); sz > c.LargestComp {
			c.LargestComp = sz
		}
	}

	// Group rules by head component.
	for i := range cnt {
		cnt[i] = 0
	}
	for ri := range p.Rules {
		cnt[c.Comp[p.Rules[ri].Head]]++
	}
	c.ruleOff = take(int(ncomp) + 1)
	c.ruleList = take(nr)
	prefixCSR(cnt, c.ruleOff)
	for ri := range p.Rules {
		ci := c.Comp[p.Rules[ri].Head]
		c.ruleList[cnt[ci]] = int32(ri)
		cnt[ci]++
	}

	// Negative cycles and topological levels in one sweep over the rules
	// grouped by head component. Components are visited in increasing
	// (topological) order, so Level of every dependency is final when
	// read.
	c.NegCycle = make([]bool, ncomp)
	c.Level = take(int(ncomp))
	maxLevel := int32(0)
	for ci := int32(0); ci < ncomp; ci++ {
		lvl := int32(0)
		for _, ri := range c.RulesOf(ci) {
			r := &p.Rules[ri]
			for k := r.Off; k < r.End; k++ {
				if d := c.Comp[p.body[k]]; d != ci {
					lvl = max(lvl, c.Level[d]+1)
				} else if k >= r.Neg {
					c.NegCycle[ci] = true
				}
			}
		}
		c.Level[ci] = lvl
		maxLevel = max(maxLevel, lvl)
		if c.NegCycle[ci] {
			c.NumHard++
		}
	}

	lvlCnt := index[:maxLevel+1] // dead after Tarjan; reuse
	for i := range lvlCnt {
		lvlCnt[i] = 0
	}
	for _, l := range c.Level {
		lvlCnt[l]++
	}
	c.lvlOff = take(int(maxLevel) + 2)
	c.lvlList = take(int(ncomp))
	prefixCSR(lvlCnt, c.lvlOff)
	for ci := int32(0); ci < ncomp; ci++ {
		l := c.Level[ci]
		c.lvlList[lvlCnt[l]] = ci
		lvlCnt[l]++
	}
	return c
}
