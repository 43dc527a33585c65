package wfs

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

// example4Src is the paper's Example 4 program: its chase never
// saturates (the R-chain grows a fresh Skolem term at every depth), so
// answering walks several rungs of the adaptive-deepening ladder — the
// chained-rung resumable chase path.
const example4Src = `
r(0,0,1).
p(0,0).
r(X,Y,Z) -> r(X,Z,W).
r(X,Y,Z), p(X,Y), not q(Z) -> p(X,Z).
r(X,Y,Z), not p(X,Y) -> q(Z).
r(X,Y,Z), not p(X,Z) -> s(X).
p(X,Y), not s(X) -> t(X).
`

func TestSnapshotLadderAnswersNonSaturating(t *testing.T) {
	sys, err := Load(example4Src)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	q, err := Prepare("? t(X).")
	if err != nil {
		t.Fatal(err)
	}
	ans, stats, err := snap.AnswerWithStats(q)
	if err != nil {
		t.Fatal(err)
	}
	if ans != True {
		t.Errorf("t(X) = %v, want true", ans)
	}
	if !stats.Stable || stats.Exact {
		t.Errorf("expected a stable, non-exact ladder answer: %+v", stats)
	}
	if len(stats.Depths) < 3 {
		t.Errorf("ladder stopped after %v — the chained-rung path was not exercised", stats.Depths)
	}
	// Concurrent answering across the chained rungs stays consistent.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if tv, err := snap.Answer(q); err != nil || tv != True {
				t.Errorf("concurrent t(X) = %v (%v)", tv, err)
			}
		}()
	}
	wg.Wait()
}

// TestSnapshotRungsMatchFromScratch cross-checks the snapshot's
// chained rungs against independent from-scratch evaluation: at
// every scheduled depth, the rung's rendered true/undefined fact sets
// must coincide with those of a fresh engine chased to the same depth.
func TestSnapshotRungsMatchFromScratch(t *testing.T) {
	sys, err := Load(example4Src)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	opts := snap.opts
	for d := opts.AdaptiveStart; d <= opts.MaxDepth && d <= opts.AdaptiveStart+3*opts.AdaptiveStep; d += opts.AdaptiveStep {
		rm, err := snap.rungAt(d, nil, nil)
		if err != nil {
			t.Fatalf("rungAt(%d): %v", d, err)
		}
		scratch := core.NewEngine(sys.prog, sys.db, opts).EvaluateAtDepth(d)
		if got, want := renderTruths(rm), renderTruths(scratch); got != want {
			t.Errorf("depth %d: rung model differs from from-scratch model:\nrung:    %s\nscratch: %s",
				d, got, want)
		}
	}
}

// renderTruths summarizes a model as sorted rendered true/undefined fact
// lists — comparable across distinct stores and local numberings.
func renderTruths(m *core.Model) string {
	st := m.Chase.Prog.Store
	var tr, un []string
	for i, g := range m.GP.Atoms {
		switch m.GM.Truth[i] {
		case True:
			tr = append(tr, st.String(g))
		case Undefined:
			un = append(un, st.String(g))
		}
	}
	return fmt.Sprintf("true=%v undef=%v", sorted(tr), sorted(un))
}

func sorted(xs []string) []string {
	out := append([]string(nil), xs...)
	sort.Strings(out)
	return out
}

// TestRungAtOffScheduleError: an off-schedule depth yields an error, not
// a panic — a serving process must never crash on a schedule mismatch.
func TestRungAtOffScheduleError(t *testing.T) {
	// NoCertify keeps the heuristic 4,6,…,24 ladder: certification would
	// collapse this (guard-acyclic) program's schedule to one rung.
	sys, err := LoadWithOptions(gameSrc, Options{NoCertify: true})
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := sys.Snapshot()
	for _, d := range []int{-1, 0, 3, 5, 999} { // schedule is 4,6,…,24
		if _, err := snap.rungAt(d, nil, nil); err == nil {
			t.Errorf("rungAt(%d) did not error", d)
		}
	}
	if m, err := snap.rungAt(4, nil, nil); err != nil || m == nil {
		t.Errorf("rungAt(4) = %v, %v; want a model", m, err)
	}
}

// TestLoadRejectsEmptyLadder: Options{GuardBand: 30} with the default
// MaxDepth resolves to an empty deepening schedule; loading must fail
// loudly instead of every later Answer silently returning False.
func TestLoadRejectsEmptyLadder(t *testing.T) {
	// NoCertify: certification would rescue the schedule by collapsing it
	// to the certified rung (that rescue is tested separately).
	_, err := LoadWithOptions(gameSrc, Options{GuardBand: 30, NoCertify: true})
	if err == nil {
		t.Fatal("LoadWithOptions accepted an empty adaptive ladder")
	}
	if !strings.Contains(err.Error(), "MaxDepth") {
		t.Errorf("error not descriptive: %v", err)
	}
	// Raising MaxDepth makes the same guard band loadable.
	sys, err := LoadWithOptions(gameSrc, Options{GuardBand: 30, MaxDepth: 40, NoCertify: true})
	if err != nil {
		t.Fatalf("satisfiable schedule rejected: %v", err)
	}
	if tv, err := sys.Answer("? win(b)."); err != nil || tv != True {
		t.Errorf("win(b) = %v (%v)", tv, err)
	}
}

// TestTrueFactsRespectGuardBand: rendered facts must only contain atoms
// query matching can see. On a predicate chain d0 → d1 → … longer than
// the configured chase depth, the forest depth grows with every link, so
// the last derived links sit in the guard band: Select hides them — and
// TrueFacts must hide them the same way.
func TestTrueFactsRespectGuardBand(t *testing.T) {
	const links = 12
	var b strings.Builder
	b.WriteString("d0(c1). d0(c2).\n")
	for i := 0; i < links; i++ {
		fmt.Fprintf(&b, "d%d(X) -> d%d(X).\n", i, i+1)
	}
	// NoCertify: the chain certifies at depth 12, which would make the
	// model exact and vacuously pass this test. The companion test
	// TestCertifiedChainRendersEverything covers the certified path.
	sys, err := LoadWithOptions(b.String(), Options{NoCertify: true})
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := sys.Snapshot()

	// Every rendered true fact must be enumerable through Select on its
	// own predicate.
	seen := 0
	for _, f := range snap.TrueFacts() {
		open := strings.IndexByte(f, '(')
		pred := f[:open]
		arg := strings.TrimSuffix(f[open+1:], ")")
		q, err := Prepare(fmt.Sprintf("? %s(X).", pred))
		if err != nil {
			t.Fatal(err)
		}
		_, rows, err := snap.Select(context.Background(), q, nil)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, row := range rows {
			if row[0] == arg {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("TrueFacts rendered %s, which Select cannot see", f)
		}
		seen++
	}
	// The chain really is depth-truncated: its tail exists in the model
	// but is hidden behind the guard band, so strictly fewer facts render
	// than the model holds true.
	st := snap.Stats()
	if st.Model.Exact || st.Model.UsableDepth < 0 {
		t.Fatalf("chain chase unexpectedly exact: %+v — test is vacuous", st.Model)
	}
	if seen == 0 || seen >= st.Model.TrueAtoms {
		t.Errorf("rendered %d facts of %d true atoms — frontier not filtered", seen, st.Model.TrueAtoms)
	}
	if und := snap.UndefinedFacts(); len(und) != 0 {
		t.Errorf("UndefinedFacts = %v, want none", und)
	}
}
