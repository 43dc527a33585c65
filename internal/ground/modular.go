package ground

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cancel"
	"repro/internal/trace"
)

// Modular WFS evaluation (the splitting-theorem architecture).
//
// SolveModular condenses the atom dependency graph into strongly
// connected components (Condensation), orders them bottom-up, and solves one
// component at a time with the truths of lower components substituted
// in. By the splitting theorem for the well-founded semantics — the same
// argument IncrementalModel's merge rests on — the concatenation of the
// component solutions is exactly the well-founded model of the whole
// program: the atoms below a component form a bottom stratum none of
// whose rules mentions a higher atom.
//
// Two component kinds, two costs:
//
//   - A component with no internal negative edge (no negation cycle, the
//     overwhelmingly common case) is solved by solveCheap: a "definite"
//     least-fixpoint pass using only rules whose resolved body literals
//     are certainly satisfied, and — only when some rule was blocked by
//     an undefined boundary value — a second "possible" pass granting
//     undefined literals. True = definite, Undefined = possible but not
//     definite, False = the rest. No alternating iteration, no copies.
//
//   - A component with an internal negative edge is extracted into a
//     subprogram over its atoms (boundary atoms resolved to their fixed
//     lower truths; undefined boundaries pinned by u ← not u exactly as
//     in IncrementalModel) and handed to the configured full WFS
//     algorithm, whose fixpoint then iterates over the component alone
//     rather than the entire program.
//
// Components on one topological level never depend on each other, so a
// level is solved concurrently by a bounded worker pool; scratch
// (queues, subprogram buffers) lives per worker and is reused across
// components. The shared truth and rule-counter arrays need no locks:
// rules and atoms partition by component, components on one level are
// claimed by exactly one worker each, and cross-level visibility is
// ordered by the pool's WaitGroup barrier.

// maxParallelism caps the worker pool regardless of the requested
// parallelism: the option is client-reachable through the server's
// session options, and worker scratch is allocated per worker, so an
// absurd request must degrade to a big pool rather than an allocation
// the size of the request.
const maxParallelism = 256

// PoolSize resolves a requested worker-pool size, the one place the
// solver's default and cap are defined. A positive request is kept, up to
// maxParallelism; zero or less selects one worker per CPU the process can
// run on at once: min(GOMAXPROCS, NumCPU). Ps beyond the CPUs do not run
// components side by side, so a server that keeps a spare P for its
// readers on one CPU still solves sequentially.
func PoolSize(requested int) int {
	if requested <= 0 {
		requested = min(runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	return min(requested, maxParallelism)
}

// SolveModular is the modular solve with solve run inside each
// negation-cyclic component and up to parallelism components solved
// concurrently (see SolveModularCancelTraced).
func SolveModular(p *Program, solve func(*Program) *Model, parallelism int) *Model {
	return SolveModularCancelTraced(p, solve, parallelism, nil, nil)
}

// topSlowestSCCs bounds how many per-component timings a detailed trace
// keeps: real condensations have tens of thousands of components, and
// only the slowest few explain where the solve went.
const topSlowestSCCs = 8

// compTimer collects per-component solve timings when a detailed trace
// asks for them. It is shared by all workers of one solve, so observation
// takes a mutex — acceptable because the timer exists only for explicitly
// traced queries, never on the default path (tr nil or not Detailed).
type compTimer struct {
	mu      sync.Mutex
	entries []compEntry
}

type compEntry struct {
	ci    int32
	atoms int
	hard  bool
	d     time.Duration
}

func (t *compTimer) observe(e compEntry) {
	t.mu.Lock()
	t.entries = append(t.entries, e)
	t.mu.Unlock()
}

// attachTop folds the collected timings into tr: the k slowest components
// become child spans named scc-<id> carrying their size.
func (t *compTimer) attachTop(tr *trace.Span, k int) {
	sort.Slice(t.entries, func(i, j int) bool { return t.entries[i].d > t.entries[j].d })
	if len(t.entries) > k {
		t.entries = t.entries[:k]
	}
	for _, e := range t.entries {
		counters := map[string]int64{"atoms": int64(e.atoms)}
		if e.hard {
			counters["hard"] = 1
		}
		tr.AttachTimed(fmt.Sprintf("scc-%d", e.ci), e.d, counters)
	}
}

// timedSolveComp is solveComp plus the optional per-component timing of a
// detailed trace; tm nil is the zero-cost default.
func timedSolveComp(p *Program, cond *Condensation, ci int32,
	truth []Truth, counts []int32, sc *modScratch, solve func(*Program) *Model, tm *compTimer) int {
	if tm == nil {
		return solveComp(p, cond, ci, truth, counts, sc, solve)
	}
	start := time.Now()
	rounds := solveComp(p, cond, ci, truth, counts, sc, solve)
	tm.observe(compEntry{ci: ci, atoms: len(cond.AtomsOf(ci)), hard: cond.NegCycle[ci], d: time.Since(start)})
	return rounds
}

// SolveModularCancelTraced is SolveModular with observability and under
// a cancellation token. It records a condense child span and SCC-shape
// counters on tr and — only when tr is Detailed — attaches the top-k
// slowest components as child spans; tr nil records nothing. The token
// (nil = never cancelled) is polled at component granularity — the
// sequential loop, each worker's claim loop, and the level barrier — so a
// cancel stops the solve within one component's work; a stopped solve
// returns with Interrupted set and a partial truth assignment that
// callers must discard.
func SolveModularCancelTraced(p *Program, solve func(*Program) *Model, parallelism int, tok *cancel.Token, tr *trace.Span) *Model {
	parallelism = PoolSize(parallelism)
	n := p.NumAtoms()
	endCondense := tr.Phase("condense")
	cond := p.Condensation()
	endCondense()
	ncomp := cond.NumComps()
	var tm *compTimer
	if tr.Detailed() {
		tm = &compTimer{}
	}
	tr.SetCount("sccs", int64(ncomp))
	tr.SetCount("largest_scc", int64(cond.LargestComp))
	tr.SetCount("hard_sccs", int64(cond.NumHard))
	if ncomp <= 1 || cond.LargestComp*2 >= n {
		// Degenerate condensation: an empty program, one giant component,
		// or a component spanning at least half the program. Decomposing
		// the rest cannot recoup the subprogram extraction for the big
		// component, so run the algorithm directly — this keeps the
		// modular path within noise of the global solve on
		// single-component workloads (win-move cycles and the like).
		if tok.Cancelled() {
			return &Model{Prog: p, Truth: make([]Truth, n), Interrupted: true,
				SCCs: ncomp, LargestSCC: cond.LargestComp, HardSCCs: cond.NumHard, Workers: 1}
		}
		endSolve := tr.Phase("solve")
		m := solve(p)
		endSolve()
		m.SCCs = ncomp
		m.LargestSCC = cond.LargestComp
		m.HardSCCs = cond.NumHard
		m.Workers = 1
		return m
	}

	m := &Model{
		Prog:       p,
		Truth:      make([]Truth, n),
		SCCs:       ncomp,
		LargestSCC: cond.LargestComp,
		HardSCCs:   cond.NumHard,
		Workers:    1,
	}
	counts := make([]int32, len(p.Rules))

	solveSpan := tr.Child("solve")
	defer func() {
		if tm != nil {
			tm.attachTop(solveSpan, topSlowestSCCs)
		}
		solveSpan.End()
	}()

	if parallelism == 1 {
		// Sequential: component IDs are already a bottom-up order, no
		// levels or barriers needed. The token is polled per component —
		// one atomic load against a component's whole solve.
		sc := &modScratch{}
		rounds := 0
		for ci := int32(0); int(ci) < ncomp; ci++ {
			if tok.Cancelled() {
				m.Interrupted = true
				break
			}
			rounds += timedSolveComp(p, cond, ci, m.Truth, counts, sc, solve, tm)
		}
		m.Rounds = rounds
		tr.SetCount("rounds", int64(rounds))
		return m
	}

	// Persistent worker pool: the pool goroutines are spawned once, on
	// the first multi-component level, and fed one levelWork per level
	// through buffered channels — a condensation's level count tracks
	// the longest derivation chain, so spawning fresh goroutines per
	// level would pay thousands of create/join cycles per solve. The
	// coordinator participates as worker 0 and the WaitGroup is the
	// level barrier: worker truth/counts writes at level k
	// happen-before every level-k+1 read via Done→Wait→send.
	scratches := make([]modScratch, parallelism)
	var rounds atomic.Int64
	type levelWork struct {
		comps []int32
		next  *atomic.Int32
		wg    *sync.WaitGroup
	}
	var feeds []chan levelWork
	defer func() {
		for _, f := range feeds {
			close(f)
		}
	}()
	for lvl := 0; lvl < cond.NumLevels(); lvl++ {
		if tok.Cancelled() {
			// Workers idle between levels (blocked on their feed channel),
			// so stopping at the barrier leaks nothing; the deferred close
			// of the feeds retires them.
			m.Interrupted = true
			break
		}
		comps := cond.CompsAtLevel(lvl)
		if len(comps) == 1 {
			rounds.Add(int64(timedSolveComp(p, cond, comps[0], m.Truth, counts, &scratches[0], solve, tm)))
			continue
		}
		if nw := min(parallelism, len(comps)); nw > m.Workers {
			m.Workers = nw
		}
		if feeds == nil {
			feeds = make([]chan levelWork, parallelism-1)
			for w := range feeds {
				feeds[w] = make(chan levelWork, 1)
				go func(f chan levelWork, sc *modScratch) {
					for lw := range f {
						rounds.Add(int64(runLevel(p, cond, lw.comps, lw.next, m.Truth, counts, sc, solve, tm, tok)))
						lw.wg.Done()
					}
				}(feeds[w], &scratches[w+1])
			}
		}
		var next atomic.Int32
		var wg sync.WaitGroup
		wg.Add(len(feeds))
		lw := levelWork{comps: comps, next: &next, wg: &wg}
		for _, f := range feeds {
			f <- lw
		}
		rounds.Add(int64(runLevel(p, cond, comps, &next, m.Truth, counts, &scratches[0], solve, tm, tok)))
		wg.Wait()
	}
	if !m.Interrupted && tok.Cancelled() {
		// A cancel during the final level left claims unprocessed; the
		// token is sticky, so checking after the barrier is reliable.
		m.Interrupted = true
	}
	m.Rounds = int(rounds.Load())
	tr.SetCount("rounds", int64(m.Rounds))
	tr.SetCount("workers", int64(m.Workers))
	return m
}

// runLevel claims components of one topological level off the shared
// cursor until the level is exhausted (or the token trips), returning
// the rounds spent.
func runLevel(p *Program, cond *Condensation, comps []int32, next *atomic.Int32,
	truth []Truth, counts []int32, sc *modScratch, solve func(*Program) *Model, tm *compTimer, tok *cancel.Token) int {
	rounds := 0
	for {
		if tok.Cancelled() {
			return rounds
		}
		i := int(next.Add(1)) - 1
		if i >= len(comps) {
			return rounds
		}
		rounds += timedSolveComp(p, cond, comps[i], truth, counts, sc, solve, tm)
	}
}

// modScratch is one worker's reusable buffers: the derivation queue of
// the cheap path and the subprogram-building state of the hard path.
// Reuse across components is safe because a component's submodel is
// consumed (truths copied out) before the next component is built.
type modScratch struct {
	queue []int32

	bmap     map[int32]int32 // boundary atom → pinned sub index
	bAtoms   []int32
	subRules []Rule
	posArena []int32
	negArena []int32
}

// solveComp evaluates one component against the already-solved truths of
// its dependencies, writing the component atoms' truths in place, and
// returns the fixpoint rounds it spent.
func solveComp(p *Program, cond *Condensation, ci int32,
	truth []Truth, counts []int32, sc *modScratch, solve func(*Program) *Model) int {
	if cond.NegCycle[ci] {
		return solveHard(p, cond, ci, truth, sc, solve)
	}
	if len(cond.AtomsOf(ci)) == 1 {
		return solveSingleton(p, cond, ci, truth)
	}
	return solveCheap(p, cond, ci, truth, counts, sc)
}

// solveSingleton is solveCheap specialized to one-atom components — the
// overwhelming bulk of real condensations (every EDB fact, every atom on
// an acyclic derivation chain) — with no queue, counters, or closures:
// the atom is True if some rule fires on definitely-satisfied resolved
// literals, Undefined if one fires when undefined literals are granted,
// False otherwise. A positive self-literal (the only possible internal
// edge here; a negative one would make the component hard) can never
// fire first in a least fixpoint over the single atom, so its rule is
// skipped.
func solveSingleton(p *Program, cond *Condensation, ci int32, truth []Truth) int {
	a := cond.AtomsOf(ci)[0]
	possible := false
	for _, ri := range cond.RulesOf(ci) {
		r := &p.Rules[ri]
		definite, ok := true, true
		for _, b := range p.Pos(r) {
			if b == a {
				ok = false // self-positive: unfirable in the least fixpoint
				break
			}
			switch truth[b] {
			case True:
			case Undefined:
				definite = false
			default:
				ok = false
			}
			if !ok {
				break
			}
		}
		if ok {
			for _, b := range p.Neg(r) {
				switch truth[b] {
				case False:
				case Undefined:
					definite = false
				default:
					ok = false
				}
				if !ok {
					break
				}
			}
		}
		if !ok {
			continue
		}
		if definite {
			truth[a] = True
			return 1
		}
		possible = true
	}
	if possible {
		truth[a] = Undefined
	}
	return 1
}

// solveCheap solves a component with no internal negation cycle. Every
// negative body atom of its rules lives in a lower component (an internal
// one would be a negation cycle), so negative literals are constants
// here, and the component's well-founded truths are the definite/possible
// least-fixpoint pair described on SolveModular.
func solveCheap(p *Program, cond *Condensation, ci int32,
	truth []Truth, counts []int32, sc *modScratch) int {
	rules := cond.RulesOf(ci)
	ix := p.index()
	queue := sc.queue[:0]
	derive := func(a int32) {
		if truth[a] != True {
			truth[a] = True
			queue = append(queue, a)
		}
	}
	// Definite pass: a rule fires only when every resolved literal is
	// certainly satisfied (positive boundary True, negative boundary
	// False); internal positive literals count down as usual.
	upperNeeded := false
	for _, ri := range rules {
		r := &p.Rules[ri]
		cnt := int32(0)
		definite, possible := true, true
		for _, b := range p.Pos(r) {
			if cond.Comp[b] == ci {
				cnt++
				continue
			}
			switch truth[b] {
			case True:
			case Undefined:
				definite = false
			default:
				definite, possible = false, false
			}
		}
		if possible {
			for _, b := range p.Neg(r) {
				switch truth[b] {
				case False:
				case Undefined:
					definite = false
				default:
					definite, possible = false, false
				}
			}
		}
		if !definite {
			counts[ri] = -1
			if possible {
				upperNeeded = true
			}
			continue
		}
		counts[ri] = cnt
		if cnt == 0 {
			derive(r.Head)
		}
	}
	for len(queue) > 0 {
		a := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, ri := range ix.pos(a) {
			if cond.Comp[p.Rules[ri].Head] != ci || counts[ri] < 0 {
				continue
			}
			counts[ri]--
			if counts[ri] == 0 {
				derive(p.Rules[ri].Head)
			}
		}
	}
	sc.queue = queue[:0]
	if !upperNeeded {
		// No rule was blocked by an undefined boundary: the possible pass
		// would derive exactly the definite atoms, so everything not
		// derived is certainly False (its zero value).
		return 1
	}

	// Possible pass: grant undefined boundary literals. Anything
	// derivable here but not definitely derivable is Undefined.
	queue = sc.queue[:0]
	deriveU := func(a int32) {
		if truth[a] == False {
			truth[a] = Undefined
			queue = append(queue, a)
		}
	}
	for _, ri := range rules {
		r := &p.Rules[ri]
		cnt := int32(0)
		possible := true
		for _, b := range p.Pos(r) {
			if cond.Comp[b] == ci {
				cnt++
			} else if truth[b] == False {
				possible = false
				break
			}
		}
		if possible {
			for _, b := range p.Neg(r) {
				if truth[b] == True {
					possible = false
					break
				}
			}
		}
		if !possible {
			counts[ri] = -1
			continue
		}
		counts[ri] = cnt
	}
	// Definitely-true atoms are derivable in the possible pass too; seed
	// them so their occurrences count down, then fire the zero-count
	// rules.
	for _, a := range cond.AtomsOf(ci) {
		if truth[a] == True {
			queue = append(queue, a)
		}
	}
	for _, ri := range rules {
		if counts[ri] == 0 {
			deriveU(p.Rules[ri].Head)
		}
	}
	for len(queue) > 0 {
		a := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, ri := range ix.pos(a) {
			if cond.Comp[p.Rules[ri].Head] != ci || counts[ri] < 0 {
				continue
			}
			counts[ri]--
			if counts[ri] == 0 {
				deriveU(p.Rules[ri].Head)
			}
		}
	}
	sc.queue = queue[:0]
	return 2
}

// solveHard extracts a negation-cyclic component into a subprogram over
// its atoms — boundary literals resolved against the already-computed
// lower truths, undefined boundaries pinned by u ← not u, exactly the
// IncrementalModel construction — and runs the configured full WFS
// algorithm on it.
func solveHard(p *Program, cond *Condensation, ci int32,
	truth []Truth, sc *modScratch, solve func(*Program) *Model) int {
	atoms := cond.AtomsOf(ci)
	k := int32(len(atoms))
	if sc.bmap == nil {
		sc.bmap = make(map[int32]int32)
	} else {
		clear(sc.bmap)
	}
	sc.bAtoms = sc.bAtoms[:0]
	sc.subRules = sc.subRules[:0]
	sc.posArena = sc.posArena[:0]
	sc.negArena = sc.negArena[:0]
	boundary := func(b int32) int32 {
		si, ok := sc.bmap[b]
		if !ok {
			si = k + int32(len(sc.bAtoms))
			sc.bmap[b] = si
			sc.bAtoms = append(sc.bAtoms, b)
		}
		return si
	}
	for _, ri := range cond.RulesOf(ci) {
		r := &p.Rules[ri]
		nr := Rule{Head: cond.PosInComp[r.Head]}
		keep := true
		posMark := len(sc.posArena)
		for _, b := range p.Pos(r) {
			if cond.Comp[b] == ci {
				sc.posArena = append(sc.posArena, cond.PosInComp[b])
				continue
			}
			switch truth[b] {
			case True: // satisfied: drop the literal
			case False:
				keep = false
			default:
				sc.posArena = append(sc.posArena, boundary(b))
			}
			if !keep {
				break
			}
		}
		negMark := len(sc.negArena)
		if keep {
			for _, b := range p.Neg(r) {
				if cond.Comp[b] == ci {
					sc.negArena = append(sc.negArena, cond.PosInComp[b])
					continue
				}
				switch truth[b] {
				case True:
					keep = false
				case False: // satisfied: drop the literal
				default:
					sc.negArena = append(sc.negArena, boundary(b))
				}
				if !keep {
					break
				}
			}
		}
		if !keep {
			sc.posArena = sc.posArena[:posMark]
			sc.negArena = sc.negArena[:negMark]
			continue
		}
		nr.Pos = sc.posArena[posMark:len(sc.posArena):len(sc.posArena)]
		nr.Neg = sc.negArena[negMark:len(sc.negArena):len(sc.negArena)]
		sc.subRules = append(sc.subRules, nr)
	}
	// Pin each undefined boundary atom to its value with u ← not u.
	for i := range sc.bAtoms {
		si := k + int32(i)
		mark := len(sc.negArena)
		sc.negArena = append(sc.negArena, si)
		sc.subRules = append(sc.subRules, Rule{Head: si, Neg: sc.negArena[mark : mark+1 : mark+1]})
	}
	sm := solve(New(int(k)+len(sc.bAtoms), sc.subRules))
	for i, a := range atoms {
		truth[a] = sm.Truth[i]
	}
	return sm.Rounds
}
