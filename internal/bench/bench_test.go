package bench

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/atom"
	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/ground"
	"repro/internal/program"
	"repro/internal/strat"
	"repro/internal/term"
)

// compileMust compiles source text into a fresh store; generator bugs are
// fatal.
func compileMust(src string) (*program.Program, program.Database, *atom.Store) {
	st := atom.NewStore(term.NewStore())
	prog, db, _, err := program.CompileText(src, st)
	if err != nil {
		panic(fmt.Sprintf("bench: generated workload failed to compile: %v", err))
	}
	return prog, db, st
}

func countTrueByPred(m *core.Model, st *atom.Store, pred string) int {
	p, ok := st.LookupPred(pred)
	if !ok {
		return 0
	}
	n := 0
	for i, g := range m.GP.Atoms {
		if st.PredOf(g) == p && m.GM.Truth[i] == ground.True {
			n++
		}
	}
	return n
}

// TestGeneratorsCompile: every generator must emit valid guarded normal
// Datalog± (generator bugs panic inside compileMust).
func TestGeneratorsCompile(t *testing.T) {
	for name, src := range map[string]string{
		"Example4":          Example4,
		"WinMoveChain":      WinMoveChain(10),
		"WinMoveCycle":      WinMoveCycle(7),
		"WinMoveRandom":     WinMoveRandom(20, 40, 1),
		"WinMoveComponents": WinMoveComponents(3, 4),
		"ReachChain":        ReachChain(10),
		"UpdateFamily":      UpdateFamily(5, 6),
		"ExpChase":          ExpChase(4),
		"PermFamily2":       PermFamily(2),
		"PermFamily4":       PermFamily(4),
		"StratifiedFamily":  StratifiedFamily(10),
	} {
		prog, db, _ := compileMust(src)
		if prog == nil {
			t.Errorf("%s produced a nil program", name)
		}
		if name != "Example4" && len(db) == 0 {
			t.Errorf("%s produced an empty database", name)
		}
	}
}

func TestWinMoveChainSemantics(t *testing.T) {
	// On a chain of even length n, v0 alternates: win at odd distance
	// from the dead end.
	prog, db, st := compileMust(WinMoveChain(4))
	m := core.NewEngine(prog, db, core.Options{}).Evaluate()
	wantTrue := map[string]bool{"v1": true, "v3": true} // odd distance from v4
	p, _ := st.LookupPred("win")
	for i := 0; i <= 4; i++ {
		name := "v" + string(rune('0'+i))
		c, ok := st.Terms.LookupConst(name)
		if !ok {
			continue
		}
		a, ok := st.Lookup(p, []term.ID{c})
		got := ground.False
		if ok {
			got = m.Truth(a)
		}
		want := ground.False
		if wantTrue[name] {
			want = ground.True
		}
		if got != want {
			t.Errorf("win(%s) = %v, want %v", name, got, want)
		}
	}
}

func TestWinMoveCycleAllUndefined(t *testing.T) {
	prog, db, _ := compileMust(WinMoveCycle(6))
	m := core.NewEngine(prog, db, core.Options{}).Evaluate()
	if got := m.GM.CountUndefined(); got != 6 {
		t.Errorf("undefined = %d, want 6", got)
	}
}

func TestExpChaseSize(t *testing.T) {
	// ExpChase(k) derives exactly 2^(k+1) - 1 atoms.
	for k := 2; k <= 6; k++ {
		prog, db, _ := compileMust(ExpChase(k))
		m := core.NewEngine(prog, db, core.Options{Depth: k + 2}).Evaluate()
		want := 1<<(k+1) - 1
		if got := m.GP.NumAtoms(); got != want {
			t.Errorf("ExpChase(%d) atoms = %d, want %d", k, got, want)
		}
	}
}

func TestPermFamilySize(t *testing.T) {
	// PermFamily(w) derives exactly w! atoms (all permutations).
	fact := []int{0, 1, 2, 6, 24, 120}
	for w := 2; w <= 5; w++ {
		prog, db, _ := compileMust(PermFamily(w))
		m := core.NewEngine(prog, db, core.Options{Depth: w*w + 2}).Evaluate()
		if got := m.GP.NumAtoms(); got != fact[w] {
			t.Errorf("PermFamily(%d) atoms = %d, want %d", w, got, fact[w])
		}
	}
}

func TestEmploymentFamilyCounts(t *testing.T) {
	st := atom.NewStore(term.NewStore())
	prog, db, err := EmploymentFamily(9).Compile(st)
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewEngine(prog, db, core.Options{}).Evaluate()
	// Of 9 persons, 3 are employed (every third): 3 employee IDs, 6 job
	// seeker IDs, 3 valid IDs.
	if got := countTrueByPred(m, st, "employeeID"); got != 3 {
		t.Errorf("employeeID = %d, want 3", got)
	}
	if got := countTrueByPred(m, st, "jobSeekerID"); got != 6 {
		t.Errorf("jobSeekerID = %d, want 6", got)
	}
	if got := countTrueByPred(m, st, "validID"); got != 3 {
		t.Errorf("validID = %d, want 3", got)
	}
}

func TestStratifiedFamilyIsStratified(t *testing.T) {
	prog, _, _ := compileMust(StratifiedFamily(6))
	if _, ok := prog.Stratify(); !ok {
		t.Errorf("StratifiedFamily is not stratified")
	}
}

func TestWinMoveRandomDeterministic(t *testing.T) {
	if WinMoveRandom(10, 20, 5) != WinMoveRandom(10, 20, 5) {
		t.Errorf("same seed produced different graphs")
	}
	if WinMoveRandom(10, 20, 5) == WinMoveRandom(10, 20, 6) {
		t.Errorf("different seeds produced identical graphs")
	}
}

// TestWinMoveRandomHasLosingMove: on the 1000-node, 2000-edge random game
// some position can move to a lost one, so "? move(X,Y), not win(Y)." is
// certainly true.
func TestWinMoveRandomHasLosingMove(t *testing.T) {
	prog, db, st := compileMust(WinMoveRandom(1000, 2000, 9))
	q, err := program.ParseQuery("? move(X,Y), not win(Y).", st)
	if err != nil {
		t.Fatal(err)
	}
	ans, stats, err := core.NewEngine(prog, db, core.Options{}).Answer(q)
	if err != nil || ans != ground.True || !stats.Exact {
		t.Errorf("answer = %v exact=%v (%v), want exact true", ans, stats != nil && stats.Exact, err)
	}
}

// TestLadderFamilyClimbsToCeiling: the ladder family's answer flips at
// every rung, so adaptive deepening never stabilizes and climbs to
// MaxDepth, where flip(c) holds — inexact, since the chase never
// saturates.
func TestLadderFamilyClimbsToCeiling(t *testing.T) {
	prog, db, st := compileMust(LadderFamily(20, 34))
	q, err := program.ParseQuery("? flip(X).", st)
	if err != nil {
		t.Fatal(err)
	}
	ans, stats, err := core.NewEngine(prog, db, core.Options{MaxDepth: 32}).Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if ans != ground.True || stats.FinalDepth != 32 || stats.Exact || stats.Stable {
		t.Errorf("flip(X) = %v, stats %+v; want true at depth 32, neither exact nor stable", ans, stats)
	}
}

// TestDeltaApplyBenchWorkloadIsSound: the update family's toggle —
// retract one mid-chain edge, then add it back — really changes the model
// (a no-op delta would let an incremental path win vacuously), and a
// model carried across both deltas by core.RebaseModel, the way each
// snapshot rung is, agrees with one rebuilt from scratch.
func TestDeltaApplyBenchWorkloadIsSound(t *testing.T) {
	const comps, length = 4, 8
	prog, db, st := compileMust(UpdateFamily(comps, length))
	moveP, _ := st.LookupPred("move")
	a := st.Atom(moveP, []term.ID{st.Terms.Const("n0_3"), st.Terms.Const("n0_4")})
	opts := core.Options{}
	m0 := core.NewEngine(prog, db, opts).Evaluate()
	winP, _ := st.LookupPred("win")
	probe := st.Atom(winP, []term.ID{st.Terms.Const("n0_3")})
	before := m0.Truth(probe)

	var db1 program.Database
	for _, f := range db {
		if f != a {
			db1 = append(db1, f)
		}
	}
	m1 := core.RebaseModel(m0, prog, opts, m0.Depth, db1)
	if m1.Truth(probe) == before {
		t.Fatalf("retraction did not change win(n0_3) (= %v): the workload is vacuous", before)
	}
	db2 := append(db1[:len(db1):len(db1)], a)
	m2 := core.RebaseModel(m1, prog, opts, m0.Depth, db2)
	scratch := core.NewEngine(prog, db2, opts).Evaluate()
	for _, g := range scratch.Chase.Atoms {
		if gv, wv := m2.Truth(g), scratch.Truth(g); gv != wv {
			t.Errorf("truth(%s) = %v, want %v", st.String(g), gv, wv)
		}
	}
}

// TestModularEquivOnFamilies is the workload half of the modular
// cross-check suite (the random-program half lives in internal/ground):
// on the ground program of every benchmark family, the modular SCC-wise
// solve must agree truth-for-truth with the global production
// alternating fixpoint and each of its three references, sequentially and
// with a worker pool.
func TestModularEquivOnFamilies(t *testing.T) {
	families := map[string]string{
		"Example4":          Example4,
		"WinMoveChain":      WinMoveChain(24),
		"WinMoveCycle":      WinMoveCycle(12),
		"WinMoveRandom":     WinMoveRandom(30, 60, 7),
		"WinMoveComponents": WinMoveComponents(6, 5),
		"ReachChain":        ReachChain(16),
		"UpdateFamily":      UpdateFamily(8, 10),
		"ExpChase":          ExpChase(5),
		"PermFamily":        PermFamily(4),
		"StratifiedFamily":  StratifiedFamily(30),
		"LadderFamily":      LadderFamily(4, 12),
	}
	if src, err := EmploymentFamily(9).ToDatalog(); err == nil {
		families["EmploymentFamily"] = src
	} else {
		t.Fatalf("employment ontology: %v", err)
	}
	algos := map[string]func(*ground.Program) *ground.Model{
		"alternating-fixpoint": ground.AlternatingFixpoint,
		"unfounded-sets":       ground.UnfoundedIteration,
		"forward-proofs":       ground.ForwardProofIteration,
		"remainder":            ground.Remainder,
	}
	for name, src := range families {
		prog, db, _ := compileMust(src)
		res := chase.Run(prog, db, chase.Options{MaxDepth: core.DefaultDepth, MaxAtoms: 4_000_000})
		gp := ground.FromChase(res)
		for an, algo := range algos {
			want := algo(gp)
			for _, par := range []int{1, 4} {
				got := ground.SolveModular(gp, algo, par)
				if !got.Equal(want) {
					t.Errorf("%s/%s par=%d: modular solve diverges from global", name, an, par)
				}
			}
		}
	}
}

// TestE4RoundsGrowWithDepth — Example 9: WFS(P) = ŴP,ω+2, so the fixpoint
// closes at no finite stage of the infinite program. On depth-d
// truncations the number of operator rounds grows with d while the
// highlighted literals (T(0) true, S(0), Q(1) false, P(0,1) true) stay
// fixed.
func TestE4RoundsGrowWithDepth(t *testing.T) {
	want := map[string]ground.Truth{"t(0)": ground.True, "s(0)": ground.False, "q(1)": ground.False, "p(0,1)": ground.True}
	prev := 0
	for _, d := range []int{4, 8, 16, 32} {
		prog, db, st := compileMust(Example4)
		m := core.NewEngine(prog, db, core.Options{Depth: d}).Evaluate()
		if m.GM.Rounds <= prev {
			t.Errorf("depth %d: %d rounds, not more than %d at the previous depth", d, m.GM.Rounds, prev)
		}
		prev = m.GM.Rounds
		for src, tv := range want {
			q, err := program.ParseQuery(src, st)
			if err != nil {
				t.Fatal(err)
			}
			if got := m.Truth(st.Instantiate(q.Pos[0], atom.NewSubst(0))); got != tv {
				t.Errorf("depth %d: %s = %v, want %v", d, src, got, tv)
			}
		}
	}
}

// TestE5NoMismatches — §1: the WFS conservatively extends stratified
// Datalog±. On stratified programs it equals the perfect model of the
// stratified baseline atom for atom, and nothing is undefined.
func TestE5NoMismatches(t *testing.T) {
	for _, n := range []int{200, 400, 800} {
		prog, db, st := compileMust(StratifiedFamily(n))
		wm := core.NewEngine(prog, db, core.Options{}).Evaluate()
		sm, err := strat.Evaluate(prog, db, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i, g := range wm.GP.Atoms {
			if got, want := wm.GM.Truth[i], sm.GM.TruthOfGlobal(g); got != want {
				t.Errorf("n=%d: %s is %v under WFS, %v in the perfect model", n, st.String(g), got, want)
			}
		}
		if u := wm.GM.CountUndefined(); u != 0 {
			t.Errorf("n=%d: %d undefined atoms in a stratified program", n, u)
		}
	}
}

// TestE6NoDivergence — §1/[2]: on positive programs the WFS-true atoms are
// exactly the chase-derivable ones and nothing is undefined.
func TestE6NoDivergence(t *testing.T) {
	for _, n := range []int{500, 1000, 2000} {
		prog, db, st := compileMust(ReachChain(n))
		res := chase.Run(prog, db, chase.Options{MaxDepth: n + 2, MaxAtoms: 8_000_000})
		m := core.NewEngine(prog, db, core.Options{Depth: n + 2, MaxAtoms: 8_000_000}).Evaluate()
		for i, g := range m.GP.Atoms {
			if (m.GM.Truth[i] == ground.True) != res.Derived(g) {
				t.Errorf("n=%d: %s is %v, derived=%v", n, st.String(g), m.GM.Truth[i], res.Derived(g))
			}
		}
		if u := m.GM.CountUndefined(); u != 0 {
			t.Errorf("n=%d: %d undefined atoms in a positive program", n, u)
		}
	}
}

// TestE9DLLiteExample2 — Example 2 at scale: under the UNA the WFS gives
// every employed person an EmployeeID, everyone else a JobSeekerID, and —
// because the two Skolem nulls never coincide — makes every EmployeeID
// null a ValidID. Every third person is employed, nothing is undefined.
func TestE9DLLiteExample2(t *testing.T) {
	for _, n := range []int{3, 30, 300} {
		st := atom.NewStore(term.NewStore())
		prog, db, err := EmploymentFamily(n).Compile(st)
		if err != nil {
			t.Fatal(err)
		}
		m := core.NewEngine(prog, db, core.Options{}).Evaluate()
		employed := (n + 2) / 3
		for pred, want := range map[string]int{"employeeID": employed, "jobSeekerID": n - employed, "validID": employed} {
			if got := countTrueByPred(m, st, pred); got != want {
				t.Errorf("n=%d: %s = %d, want %d", n, pred, got, want)
			}
		}
		if u := m.GM.CountUndefined(); u != 0 {
			t.Errorf("n=%d: %d undefined atoms", n, u)
		}
	}
}

func TestEmploymentOntologyMatchesPaper(t *testing.T) {
	src, err := EmploymentOntology().ToDatalog()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "not ex_jobSeekerID(X) -> employeeID(X, Z)") {
		t.Errorf("ontology translation drifted:\n%s", src)
	}
}
