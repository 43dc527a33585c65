package ground

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/atom"
	"repro/internal/chase"
)

// fourAlgorithms names the independent global WFS implementations the
// modular solver must agree with (and may run inside hard components).
var fourAlgorithms = map[string]func(*Program) *Model{
	"alternating-fixpoint": AlternatingFixpoint,
	"unfounded-sets":       UnfoundedIteration,
	"forward-proofs":       ForwardProofIteration,
	"remainder":            Remainder,
}

func TestCondenseWinMoveChain(t *testing.T) {
	// win-move on a chain v0→v1→v2 with a dead end: atoms 0,1,2 =
	// win(v0..v2); 3,4,5 = move facts. Acyclic: every atom its own
	// component, no negation cycles.
	p := mk(6,
		Rule{Head: 3}, Rule{Head: 4}, Rule{Head: 5},
		Rule{Head: 0, Pos: []int32{3}, Neg: []int32{1}},
		Rule{Head: 1, Pos: []int32{4}, Neg: []int32{2}},
		Rule{Head: 2, Pos: []int32{5}},
	)
	c := p.Condensation()
	if c.NumComps() != 6 {
		t.Fatalf("comps = %d, want 6", c.NumComps())
	}
	if c.NumHard != 0 {
		t.Errorf("hard comps = %d, want 0 (no negation cycle)", c.NumHard)
	}
	if c.LargestComp != 1 {
		t.Errorf("largest = %d, want 1", c.LargestComp)
	}
	// Topological order: dependencies before dependents. win(0) depends
	// (transitively) on everything, so its component comes last among the
	// win atoms.
	if c.Comp[0] < c.Comp[1] || c.Comp[1] < c.Comp[2] {
		t.Errorf("win components out of topological order: %v", c.Comp[:3])
	}
	// Levels: a dependency's level is strictly below its dependent's.
	if !(c.Level[c.Comp[0]] > c.Level[c.Comp[1]] && c.Level[c.Comp[1]] > c.Level[c.Comp[2]]) {
		t.Errorf("levels not strictly increasing toward win(0): %v", c.Level)
	}
}

func TestCondenseCycleIsOneHardComponent(t *testing.T) {
	// win-move on a 3-cycle: one SCC of the three win atoms, with an
	// internal negative edge — a hard component.
	p := mk(6,
		Rule{Head: 3}, Rule{Head: 4}, Rule{Head: 5},
		Rule{Head: 0, Pos: []int32{3}, Neg: []int32{1}},
		Rule{Head: 1, Pos: []int32{4}, Neg: []int32{2}},
		Rule{Head: 2, Pos: []int32{5}, Neg: []int32{0}},
	)
	c := p.Condensation()
	if c.NumComps() != 4 {
		t.Fatalf("comps = %d, want 4 (3 facts + 1 cycle)", c.NumComps())
	}
	if c.NumHard != 1 || c.LargestComp != 3 {
		t.Errorf("hard = %d largest = %d, want 1 and 3", c.NumHard, c.LargestComp)
	}
	if c.Comp[0] != c.Comp[1] || c.Comp[1] != c.Comp[2] {
		t.Errorf("cycle atoms in distinct components: %v", c.Comp[:3])
	}
	m := SolveModular(p, AlternatingFixpoint, 1)
	for a := int32(0); a < 3; a++ {
		if m.Truth[a] != Undefined {
			t.Errorf("win atom %d = %v, want undefined", a, m.Truth[a])
		}
	}
	if m.HardSCCs != 1 || m.SCCs != 4 {
		t.Errorf("model stats SCCs=%d Hard=%d, want 4 and 1", m.SCCs, m.HardSCCs)
	}
}

// TestModularUndefinedBoundary pins the boundary treatment: a hard
// component (negation 2-cycle) feeding a cheap chain must propagate
// Undefined through both positive and negative literals, and an
// undefined boundary entering another hard component must be pinned, not
// resolved.
func TestModularUndefinedBoundary(t *testing.T) {
	// 0,1: p ← not q; q ← not p (undefined pair).
	// 2: a ← p (undefined via positive boundary).
	// 3: b ← not p (undefined via negative boundary).
	// 4,5: r ← not s, p; s ← not r (hard comp with undefined boundary).
	// 6,7: t a fact, f ← t (plain true chain, stays two-valued).
	p := mk(8,
		Rule{Head: 0, Neg: []int32{1}},
		Rule{Head: 1, Neg: []int32{0}},
		Rule{Head: 2, Pos: []int32{0}},
		Rule{Head: 3, Neg: []int32{0}},
		Rule{Head: 4, Pos: []int32{0}, Neg: []int32{5}},
		Rule{Head: 5, Neg: []int32{4}},
		Rule{Head: 6},
		Rule{Head: 7, Pos: []int32{6}},
	)
	for name, algo := range fourAlgorithms {
		want := algo(p)
		for _, par := range []int{1, 4} {
			got := SolveModular(p, algo, par)
			if !got.Equal(want) {
				t.Errorf("%s par=%d:\n got %v\nwant %v", name, par, got, want)
			}
		}
	}
	m := SolveModular(p, AlternatingFixpoint, 1)
	for a, want := range []Truth{Undefined, Undefined, Undefined, Undefined, Undefined, Undefined, True, True} {
		if m.Truth[a] != want {
			t.Errorf("atom %d = %v, want %v", a, m.Truth[a], want)
		}
	}
}

// TestModularEquivGlobalRandom is the headline cross-check: on random
// ground programs (the same generator the four global algorithms are
// cross-checked with), the modular solve agrees truth-for-truth with
// every global algorithm, sequentially and with a worker pool.
func TestModularEquivGlobalRandom(t *testing.T) {
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(23))}
	if err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := RandomProgram(rng, 3+rng.Intn(20), 3+rng.Intn(30), 3, 3, rng.Intn(4))
		want := AlternatingFixpoint(p)
		for name, algo := range fourAlgorithms {
			for _, par := range []int{1, 3} {
				got := SolveModular(p, algo, par)
				if !got.Equal(want) {
					t.Logf("seed %d %s par=%d:\n got %v\nwant %v", seed, name, par, got, want)
					return false
				}
			}
		}
		return true
	}, cfg); err != nil {
		t.Error(err)
	}
}

// TestModularManyComponentsParallel exercises the level-parallel pool on
// a workload with many independent components per level: k disjoint
// win-move chains (all singleton components) plus k independent negation
// 2-cycles (hard components, all on one level).
func TestModularManyComponentsParallel(t *testing.T) {
	const k, l = 37, 9
	var rules []Rule
	n := 0
	atom := func() int32 { n++; return int32(n - 1) }
	for c := 0; c < k; c++ {
		// Chain of l win atoms; the deepest has an unconditioned rule.
		prev := atom()
		rules = append(rules, Rule{Head: prev})
		for i := 1; i < l; i++ {
			a := atom()
			rules = append(rules, Rule{Head: a, Neg: []int32{prev}})
			prev = a
		}
		// One negation 2-cycle.
		x, y := atom(), atom()
		rules = append(rules, Rule{Head: x, Neg: []int32{y}}, Rule{Head: y, Neg: []int32{x}})
	}
	p := New(n, rules)
	want := AlternatingFixpoint(p)
	for _, par := range []int{1, 2, 8} {
		got := SolveModular(p, AlternatingFixpoint, par)
		if !got.Equal(want) {
			t.Fatalf("par=%d diverges from global solve", par)
		}
		if want := k * (l + 1); got.SCCs != want { // l singletons + one 2-cycle per chain
			t.Errorf("par=%d SCCs = %d, want %d", par, got.SCCs, want)
		}
		if got.HardSCCs != k {
			t.Errorf("par=%d hard SCCs = %d, want %d", par, got.HardSCCs, k)
		}
	}
	if got := SolveModular(p, AlternatingFixpoint, 8); got.Workers < 2 {
		t.Errorf("workers = %d, want ≥ 2 with parallelism 8", got.Workers)
	}
	// An absurd (client-reachable) parallelism request is clamped, not
	// allocated: the solve must succeed with a bounded pool.
	if got := SolveModular(p, AlternatingFixpoint, 1<<30); !got.Equal(want) || got.Workers > maxParallelism {
		t.Errorf("clamped solve diverged or overspawned: workers = %d", got.Workers)
	}
}

// TestPoolSizeFollowsCPUs: an explicit request is kept up to the cap, and
// the default is one worker per CPU — a GOMAXPROCS above the CPU count
// (wfsd keeps a spare P on a one-CPU host) does not grow the pool.
func TestPoolSizeFollowsCPUs(t *testing.T) {
	for _, tc := range []struct{ req, want int }{
		{1, 1}, {7, 7}, {maxParallelism, maxParallelism}, {1 << 30, maxParallelism},
	} {
		if got := PoolSize(tc.req); got != tc.want {
			t.Errorf("PoolSize(%d) = %d, want %d", tc.req, got, tc.want)
		}
	}
	cpus := runtime.NumCPU()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(cpus + 1))
	for _, req := range []int{0, -1} {
		if got := PoolSize(req); got != min(cpus, maxParallelism) {
			t.Errorf("PoolSize(%d) at GOMAXPROCS %d = %d, want NumCPU %d", req, cpus+1, got, cpus)
		}
	}
	runtime.GOMAXPROCS(1)
	if got := PoolSize(0); got != 1 {
		t.Errorf("PoolSize(0) at GOMAXPROCS 1 = %d, want 1", got)
	}
}

// TestModularSingleComponentFallback: a program whose dependency graph is
// one SCC must take the direct global-solve path.
func TestModularSingleComponentFallback(t *testing.T) {
	p := mk(2,
		Rule{Head: 0, Neg: []int32{1}},
		Rule{Head: 1, Neg: []int32{0}},
	)
	m := SolveModular(p, AlternatingFixpoint, 4)
	if m.SCCs != 1 || m.Workers != 1 {
		t.Errorf("SCCs=%d Workers=%d, want 1 and 1", m.SCCs, m.Workers)
	}
	if !m.Equal(AlternatingFixpoint(p)) {
		t.Errorf("fallback diverges")
	}
}

// TestModularEmptyAndRulelessAtoms: degenerate shapes must not crash and
// must leave rule-less atoms false.
func TestModularEmptyAndRulelessAtoms(t *testing.T) {
	if m := SolveModular(New(0, nil), AlternatingFixpoint, 2); len(m.Truth) != 0 {
		t.Errorf("empty program produced truths: %v", m.Truth)
	}
	m := SolveModular(New(3, []Rule{{Head: 1}}), AlternatingFixpoint, 2)
	for a, want := range []Truth{False, True, False} {
		if m.Truth[a] != want {
			t.Errorf("atom %d = %v, want %v", a, m.Truth[a], want)
		}
	}
}

// TestModularRoundsGrowWithChainLength: the modular Rounds metric (summed
// per-component rounds along the topological order) must still grow with
// the program's dependency depth — the property the transfinite-iteration
// experiment (E4) measures.
func TestModularRoundsGrowWithChainLength(t *testing.T) {
	build := func(l int) *Program {
		rules := []Rule{{Head: 0}}
		for i := 1; i < l; i++ {
			rules = append(rules, Rule{Head: int32(i), Neg: []int32{int32(i - 1)}})
		}
		return New(l, rules)
	}
	prev := 0
	for _, l := range []int{4, 16, 64} {
		m := SolveModular(build(l), AlternatingFixpoint, 1)
		if m.Rounds <= prev {
			t.Fatalf("rounds did not grow: %d at length %d (prev %d)", m.Rounds, l, prev)
		}
		prev = m.Rounds
	}
}

// TestIncrementalConeMatchesScratch: the incremental warm start's
// affected cone, walked over the occurrence lists, must match
// from-scratch evaluation after a revision that adds a fact near the end
// of a negation chain: only its dependents may change.
func TestIncrementalConeMatchesScratch(t *testing.T) {
	// w(i) ← s(i-1,i), not w(i-1) alternates along the chain, long enough
	// that the seed's cone stays under the everything-affected fallback
	// and the subprogram merge path runs.
	const n, seed = 40, 35
	var src strings.Builder
	src.WriteString("z(0).\nz(X) -> w(X).\ns(X,Y), not w(X) -> w(Y).\n")
	for i := 1; i < n; i++ {
		fmt.Fprintf(&src, "s(%d,%d).\n", i-1, i)
	}
	prog, db, st := compileChase(t, src.String())
	res := chase.Run(prog, db, chase.Options{MaxDepth: 2 * n, MaxAtoms: 10_000})
	gp := FromChase(res)
	prev := SolveModular(gp, AlternatingFixpoint, 1)
	zs := internFact(t, st, "z", strconv.Itoa(seed))
	gp2 := ExtendFromChase(gp, res.ExtendDB(prog, append(db, zs), []atom.AtomID{zs}))
	got := IncrementalModel(gp2, prev, []atom.AtomID{zs, internFact(t, st, "w", strconv.Itoa(seed))}, AlternatingFixpoint)
	want := AlternatingFixpoint(gp2)
	checkSameTruth(t, st, got, want)
	ws := internFact(t, st, "w", strconv.Itoa(seed))
	if got.TruthOfGlobal(ws) != True {
		t.Errorf("w(%d) = %v, want true", seed, got.TruthOfGlobal(ws))
	}
	// The merged model carries the last full solve's shape forward (a
	// mutating session's stats would otherwise change meaning after the
	// first delta).
	if got.SCCs != prev.SCCs || got.LargestSCC != prev.LargestSCC || got.HardSCCs != prev.HardSCCs || got.Workers < 1 {
		t.Errorf("merged model stats SCCs=%d Largest=%d Hard=%d Workers=%d, want %d/%d/%d/≥1",
			got.SCCs, got.LargestSCC, got.HardSCCs, got.Workers, prev.SCCs, prev.LargestSCC, prev.HardSCCs)
	}
}
