package wfs

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/trace"
)

// The standard game oracle: win(b) is true and win(c) false in the base
// program; after adding move(c,d), win(c) turns true and win(b) undefined
// (a↔b becomes a drawn cycle).
const gameSrc = `
	move(a,b). move(b,a). move(b,c).
	move(X,Y), not win(Y) -> win(X).
`

func TestSnapshotStaleVsFresh(t *testing.T) {
	sys, err := Load(gameSrc)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Prepare("win(b)")
	if err != nil {
		t.Fatal(err)
	}

	stale, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if stale.Epoch() != 0 {
		t.Fatalf("fresh snapshot epoch = %d, want 0", stale.Epoch())
	}
	if tv, err := stale.Answer(q); err != nil || tv != True {
		t.Fatalf("win(b) = %v (%v), want true", tv, err)
	}

	if err := sys.AddFact("move", "c", "d"); err != nil {
		t.Fatal(err)
	}

	// The stale snapshot keeps answering its epoch's view.
	if tv, _ := stale.Answer(q); tv != True {
		t.Errorf("stale snapshot changed its answer: win(b) = %v", tv)
	}
	if stale.NumFacts() != 3 {
		t.Errorf("stale snapshot facts = %d, want 3", stale.NumFacts())
	}

	// A fresh snapshot sees the new epoch and the new model — answered
	// with the SAME prepared query, exercising cross-snapshot reuse.
	fresh, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if fresh == stale {
		t.Fatal("Snapshot returned the invalidated snapshot")
	}
	if fresh.Epoch() != 1 {
		t.Errorf("fresh snapshot epoch = %d, want 1", fresh.Epoch())
	}
	if tv, err := fresh.Answer(q); err != nil || tv != Undefined {
		t.Errorf("win(b) after move(c,d) = %v (%v), want undefined", tv, err)
	}
	if tv, err := fresh.TruthOf("win(c)"); err != nil || tv != True {
		t.Errorf("win(c) after move(c,d) = %v (%v), want true", tv, err)
	}
	// And the stale one still disagrees, consistently.
	if tv, _ := stale.TruthOf("win(c)"); tv != False {
		t.Errorf("stale win(c) = %v, want false", tv)
	}

	// Unchanged system returns the same snapshot (no rebuild).
	again, _ := sys.Snapshot()
	if again != fresh {
		t.Error("Snapshot rebuilt without an intervening write")
	}
}

func TestPrepareErrors(t *testing.T) {
	for _, bad := range []string{"", "p(", "? p(X), not q(Y).", "p(X) ->"} {
		if _, err := Prepare(bad); err == nil {
			// Negation safety (?p(X), not q(Y)) is a compile-time check,
			// not a parse-time one; it must surface at answer time below.
			if bad == "? p(X), not q(Y)." {
				continue
			}
			t.Errorf("Prepare(%q) accepted malformed input", bad)
		}
	}

	sys, err := Load(`p(a).`)
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := sys.Snapshot()

	// Unsafe negation is rejected at compile time, per snapshot.
	if q, err := Prepare("? p(X), not q(Y)."); err == nil {
		if _, aerr := snap.Answer(q); aerr == nil {
			t.Error("unsafe query answered without error")
		}
	}

	// Arity mismatch against the loaded schema is a compile error too.
	q, err := Prepare("? p(a,b).")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snap.Answer(q); err == nil {
		t.Error("arity-mismatched query answered without error")
	}
	if _, err := sys.Answer("? p(a,b)."); err == nil {
		t.Error("System.Answer missed the arity mismatch")
	}
}

func TestSnapshotUnknownNames(t *testing.T) {
	sys, err := Load(gameSrc)
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := sys.Snapshot()

	// Unknown predicate: certainly false, resolved by lookup only
	// (TestReadsNeverIntern checks that the store does not grow).
	q, err := Prepare("? neverSeen(a).")
	if err != nil {
		t.Fatal(err)
	}
	if tv, err := snap.Answer(q); err != nil || tv != False {
		t.Errorf("unknown predicate = %v (%v), want false", tv, err)
	}
	// Unknown constant in a known predicate.
	q2, _ := Prepare("? win(nobody).")
	if tv, err := snap.Answer(q2); err != nil || tv != False {
		t.Errorf("unknown constant = %v (%v), want false", tv, err)
	}
	// Negated unknown atom: vacuously false, so the query can hold.
	q3, _ := Prepare("? move(a,b), not blocked(a).")
	if tv, err := snap.Answer(q3); err != nil || tv != True {
		t.Errorf("negated unknown atom: %v (%v), want true", tv, err)
	}
	// TruthOf and WCheck on unknown atoms.
	if tv, err := snap.TruthOf("ghost(x)"); err != nil || tv != False {
		t.Errorf("TruthOf(ghost) = %v (%v)", tv, err)
	}
	if tv, _, err := snap.WCheck("ghost(x)"); err != nil || tv != False {
		t.Errorf("WCheck(ghost) = %v (%v)", tv, err)
	}
	// Repeating the unknown-name query gives the same answer: a read
	// leaves no residue.
	if tv, _ := snap.Answer(q); tv != False {
		t.Error("second unknown-name answer differs")
	}
}

func TestSnapshotSelectAndFacts(t *testing.T) {
	sys, err := Load(gameSrc)
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := sys.Snapshot()
	q, err := Prepare("? win(X).")
	if err != nil {
		t.Fatal(err)
	}
	vars, rows, err := snap.Select(context.Background(), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(vars) != 1 || vars[0] != "X" {
		t.Errorf("vars = %v", vars)
	}
	if len(rows) != 1 || rows[0][0] != "b" {
		t.Errorf("rows = %v, want [[b]]", rows)
	}
	tf := snap.TrueFacts()
	joined := strings.Join(tf, " ")
	if !strings.Contains(joined, "win(b)") || !strings.Contains(joined, "move(a,b)") {
		t.Errorf("TrueFacts = %v", tf)
	}
	if und := snap.UndefinedFacts(); len(und) != 0 {
		t.Errorf("UndefinedFacts = %v, want none", und)
	}
}

func TestSnapshotExplainConcurrent(t *testing.T) {
	sys, err := Load(gameSrc)
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := sys.Snapshot()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			proof, ok, err := snap.Explain("win(b)")
			if err != nil || !ok || !strings.Contains(proof, "win(b)") ||
				!strings.Contains(proof, "negative hypotheses") {
				t.Errorf("Explain(win(b)) = ok=%v err=%v:\n%s", ok, err, proof)
			}
			if _, ok, _ := snap.Explain("win(c)"); ok {
				t.Error("false atom explained")
			}
			if _, _, err := snap.Explain("win("); err == nil {
				t.Error("malformed atom did not error")
			}
		}()
	}
	wg.Wait()
}

// TestSnapshotStatsAndAnswerAll covers the remaining snapshot reads.
func TestSnapshotStatsAndAnswerAll(t *testing.T) {
	sys, err := Load(gameSrc + "\n? win(b).\n? win(c).\n")
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := sys.Snapshot()
	st := snap.Stats()
	if st.Facts != 3 || st.Epoch != 0 || st.Model.TrueAtoms == 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.Stratified {
		t.Error("win/move reported stratified")
	}
	all := snap.AnswerAll()
	if len(all) != 2 || all[0].Answer != True || all[1].Answer != False {
		t.Errorf("AnswerAll = %+v", all)
	}
	if vs := snap.CheckConstraints(); len(vs) != 0 {
		t.Errorf("violations = %v", vs)
	}
}

// TestPreparedQueryAcrossSystems reuses one prepared query against
// snapshots of two unrelated systems (distinct ID spaces).
func TestPreparedQueryAcrossSystems(t *testing.T) {
	q, err := Prepare("? win(b).")
	if err != nil {
		t.Fatal(err)
	}
	sysA, _ := Load(gameSrc)
	sysB, _ := Load(`move(b,z). move(X,Y), not win(Y) -> win(X).`)
	snapA, _ := sysA.Snapshot()
	snapB, _ := sysB.Snapshot()
	for i := 0; i < 3; i++ { // interleave to exercise the compile cache
		if tv, err := snapA.Answer(q); err != nil || tv != True {
			t.Fatalf("A: win(b) = %v (%v)", tv, err)
		}
		if tv, err := snapB.Answer(q); err != nil || tv != True {
			t.Fatalf("B: win(b) = %v (%v)", tv, err)
		}
	}
}

func TestSnapshotAfterCSVLoad(t *testing.T) {
	sys, err := Load(`move(X,Y), not win(Y) -> win(X).`)
	if err != nil {
		t.Fatal(err)
	}
	s0, _ := sys.Snapshot()
	if s0.NumFacts() != 0 {
		t.Fatalf("facts = %d", s0.NumFacts())
	}
	if _, err := sys.LoadCSV("move", strings.NewReader("a,b\nb,c\n")); err != nil {
		t.Fatal(err)
	}
	s1, _ := sys.Snapshot()
	if s1.Epoch() != 1 || s1.NumFacts() != 2 {
		t.Fatalf("epoch=%d facts=%d after CSV", s1.Epoch(), s1.NumFacts())
	}
	if tv, _ := s1.TruthOf("win(b)"); tv != True {
		t.Errorf("win(b) = %v after CSV load", tv)
	}
	if tv, _ := s0.TruthOf("win(b)"); tv != False {
		t.Errorf("stale snapshot win(b) = %v, want false", tv)
	}
}

// TestManyEpochs cycles write→snapshot→answer to confirm clones stay
// independent over many epochs.
func TestManyEpochs(t *testing.T) {
	sys, err := Load(`move(X,Y), not win(Y) -> win(X).`)
	if err != nil {
		t.Fatal(err)
	}
	q, _ := Prepare("? win(n0).")
	var snaps []*Snapshot
	for i := 0; i < 10; i++ {
		if err := sys.AddFact("move", fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1)); err != nil {
			t.Fatal(err)
		}
		s, _ := sys.Snapshot()
		snaps = append(snaps, s)
	}
	// Chain n0→n1→…→n10: win alternates with parity of the suffix.
	for i, s := range snaps {
		want := False
		if i%2 == 0 { // odd chain length: n0 wins
			want = True
		}
		if tv, err := s.Answer(q); err != nil || tv != want {
			t.Errorf("epoch %d: win(n0) = %v (%v), want %v", i+1, tv, err, want)
		}
	}
}

// TestSnapshotOneModelPerDepth: on a certified program the configured
// depth is the ladder's single rung, so the base model behind Select,
// TruthOf, Explain, Stats and CheckConstraints is that rung — a read of
// either kind after the other builds nothing, and the rebase a mutation
// publishes carries one model across, not two.
func TestSnapshotOneModelPerDepth(t *testing.T) {
	sys := loadGame(t)
	q, err := Prepare("? win(b).")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if ans, err := snap.Answer(q); err != nil || ans != True {
		t.Fatalf("win(b) = %v (%v)", ans, err)
	}
	if got := sys.Metrics().Read().Builds; got != 1 {
		t.Fatalf("builds after the first answer = %d, want 1", got)
	}
	if _, tuples, err := snap.Select(context.Background(), q, nil); err != nil || len(tuples) != 1 {
		t.Errorf("select = %v (%v)", tuples, err)
	}
	if tv, err := snap.TruthOf("win(c)"); err != nil || tv != False {
		t.Errorf("win(c) = %v (%v)", tv, err)
	}
	if _, ok, err := snap.Explain("win(b)"); err != nil || !ok {
		t.Errorf("explain win(b): ok=%v (%v)", ok, err)
	}
	if st := snap.Stats(); !st.Model.Exact {
		t.Errorf("stats = %+v", st.Model)
	}
	snap.CheckConstraints()
	if got := sys.Metrics().Read().Builds; got != 1 {
		t.Errorf("builds after select/truth/explain/stats = %d, want still 1", got)
	}

	if err := sys.AddFact("move", "c", "d"); err != nil {
		t.Fatal(err)
	}
	next, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if m := sys.Metrics().Read(); m.Builds != 2 || m.Rebases != 1 {
		t.Errorf("after one mutation: builds = %d, rebases = %d, want 2 and 1", m.Builds, m.Rebases)
	}
	if tv, err := next.TruthOf("win(c)"); err != nil || tv != True {
		t.Errorf("win(c) after move(c,d) = %v (%v)", tv, err)
	}
	if got := sys.Metrics().Read().Builds; got != 2 {
		t.Errorf("builds after a read on the warmed snapshot = %d, want still 2", got)
	}
}

// TestRebaseTimeIsAttributed: the rebase a write causes folds its chase
// continuation and its reground into the engine metrics, which the
// harness's live.chase_s and live.unattributed_ratio read.
func TestRebaseTimeIsAttributed(t *testing.T) {
	sys := loadGame(t)
	if tv, err := sys.Answer("win(b)"); err != nil || tv != True {
		t.Fatalf("win(b) = %v (%v)", tv, err)
	}
	before := sys.Metrics().Read()
	if err := sys.Apply(NewDelta().Add("move", "c", "d")); err != nil {
		t.Fatal(err)
	}
	if tv, err := sys.Answer("win(b)"); err != nil || tv != Undefined {
		t.Fatalf("win(b) after move(c,d) = %v (%v)", tv, err)
	}
	after := sys.Metrics().Read()
	if after.Rebases <= before.Rebases || after.ChaseNS <= before.ChaseNS || after.GroundNS <= before.GroundNS {
		t.Errorf("metrics before the rebase %+v, after %+v: want rebases, chase and ground time grown", before, after)
	}
}

// TestSnapshotBaseOffLadder: a configured depth the schedule does not
// visit keeps a model of its own.
func TestSnapshotBaseOffLadder(t *testing.T) {
	sys, err := LoadWithOptions(gameSrc, Options{NoCertify: true, Depth: 5})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if slices.Contains(snap.rungs, snap.base) {
		t.Fatalf("depth 5 is not on the ladder 4, 6, …")
	}
	if st := snap.Stats(); st.Model.Depth != 5 || !st.Model.Exact {
		t.Errorf("stats = %+v", st.Model)
	}
	if tv, err := sys.Answer("win(b)"); err != nil || tv != True {
		t.Errorf("win(b) = %v (%v)", tv, err)
	}
	if got := sys.Metrics().Read().Builds; got != 2 {
		t.Errorf("builds = %d, want 2 (base and first rung)", got)
	}
}

// matchCounters sums the matcher's counters over every match span of a
// trace.
func matchCounters(et *trace.EvalTrace) (candidates, indexBuilds int64, spans int) {
	if et == nil {
		return
	}
	if et.Name == "match" {
		return et.Counters["candidates"], et.Counters["index_builds"], 1
	}
	for _, c := range et.Children {
		cc, ib, n := matchCounters(c)
		candidates, indexBuilds, spans = candidates+cc, indexBuilds+ib, spans+n
	}
	return
}

// TestMatchSpanCounters: on a 10⁴-fact knowledge base a traced point
// query examines one atom, not the predicate's list, and a select with one
// bound argument examines no more than that argument's fan-out; the match
// span says so, and says which request paid for an index.
func TestMatchSpanCounters(t *testing.T) {
	sys, err := Load(bench.UpdateFamily(200, 50) + "move(n7_3, extra).\n")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.NumFacts() != 10001 {
		t.Fatalf("facts = %d", snap.NumFacts())
	}
	point := func(atom string, want Truth) {
		t.Helper()
		q, err := Prepare(atom)
		if err != nil {
			t.Fatal(err)
		}
		ans, _, et, err := snap.TraceAnswer(q)
		if err != nil || ans != want {
			t.Fatalf("%s = %v (%v), want %v", atom, ans, err, want)
		}
		cands, builds, spans := matchCounters(et)
		// One lookup per pass: the strict pass, and for an answer that is
		// not True the relaxed pass after it.
		limit := int64(1)
		if want != True {
			limit = 2
		}
		if spans != 1 || cands > limit || builds != 0 {
			t.Errorf("%s: %d match span(s) examined %d atoms and built %d indexes; want 1, ≤ %d, 0\n%s",
				atom, spans, cands, builds, limit, et.Format())
		}
	}
	point("win(n7_49)", True) // the last mover of a chain wins
	point("move(n7_3, n7_4)", True)
	point("win(n7_50)", False)
	point("win(nowhere)", False) // a constant the store has never seen

	sel, err := Prepare("? move(n7_3,Y), not win(Y).")
	if err != nil {
		t.Fatal(err)
	}
	for i, wantBuilds := range []int64{1, 0} { // the first request builds move/0, the second finds it
		root := trace.New("select")
		_, tuples, err := snap.Select(context.Background(), sel, root)
		if err != nil {
			t.Fatal(err)
		}
		// n7_4 is an even number of moves from the chain's end, extra
		// has no move at all: neither wins.
		if len(tuples) != 2 || tuples[0][0] != "extra" || tuples[1][0] != "n7_4" {
			t.Errorf("tuples = %v", tuples)
		}
		cands, builds, spans := matchCounters(root.Trace())
		if spans != 1 || cands > 2 || builds != wantBuilds {
			t.Errorf("select %d: %d match span(s) examined %d atoms and built %d indexes; want 1, ≤ 2 (the fan-out of n7_3), %d",
				i, spans, cands, builds, wantBuilds)
		}
	}
	// An all-variable literal is a scan and builds nothing.
	scan, err := Prepare("? move(X,Y), not win(Y).")
	if err != nil {
		t.Fatal(err)
	}
	_, _, et, err := snap.TraceAnswer(scan)
	if err != nil {
		t.Fatal(err)
	}
	if _, builds, _ := matchCounters(et); builds != 0 {
		t.Errorf("all-variable query built %d indexes", builds)
	}
}
