package wfs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// gameSrc (the win-move oracle) is declared in snapshot_test.go.

func loadGame(t *testing.T) *System {
	t.Helper()
	sys, err := Load(gameSrc)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func wantTruth(t *testing.T, sys *System, atomSrc string, want Truth) {
	t.Helper()
	got, err := sys.TruthOf(atomSrc)
	if err != nil {
		t.Fatalf("TruthOf(%s): %v", atomSrc, err)
	}
	if got != want {
		t.Errorf("TruthOf(%s) = %v, want %v", atomSrc, got, want)
	}
}

// TestApplySemantics drives the canonical win-move oracle through a
// delta round-trip: adding move(c,d) flips win(c) true and win(b)
// undefined; retracting it restores the original model.
func TestApplySemantics(t *testing.T) {
	sys := loadGame(t)
	wantTruth(t, sys, "win(b)", True)
	wantTruth(t, sys, "win(c)", False)
	e0 := sys.Epoch()

	if err := sys.Apply(NewDelta().Add("move", "c", "d")); err != nil {
		t.Fatal(err)
	}
	if sys.Epoch() != e0+1 {
		t.Fatalf("epoch = %d, want %d (one bump per batch)", sys.Epoch(), e0+1)
	}
	wantTruth(t, sys, "win(c)", True)
	wantTruth(t, sys, "win(b)", Undefined)

	if err := sys.Apply(NewDelta().Retract("move", "c", "d")); err != nil {
		t.Fatal(err)
	}
	wantTruth(t, sys, "win(b)", True)
	wantTruth(t, sys, "win(c)", False)
	if n := sys.NumFacts(); n != 3 {
		t.Errorf("NumFacts = %d, want 3 after round-trip", n)
	}
}

// TestApplyBatchIsOneEpoch: a mixed batch commits under a single epoch
// bump and both mutations land together.
func TestApplyBatchIsOneEpoch(t *testing.T) {
	sys := loadGame(t)
	e0 := sys.Epoch()
	d := NewDelta().Add("move", "c", "d").Retract("move", "b", "c")
	if err := sys.Apply(d); err != nil {
		t.Fatal(err)
	}
	if sys.Epoch() != e0+1 {
		t.Errorf("epoch = %d, want %d", sys.Epoch(), e0+1)
	}
	wantTruth(t, sys, "win(c)", True)      // from the addition
	wantTruth(t, sys, "win(b)", Undefined) // the a↔b cycle is a draw without b→c
}

// TestApplyAllOrNothing: any invalid entry rejects the whole batch with
// the database, the epoch, and the model untouched.
func TestApplyAllOrNothing(t *testing.T) {
	sys := loadGame(t)
	e0 := sys.Epoch()
	cases := map[string]*Delta{
		"unknown-retract-pred": NewDelta().Add("move", "c", "d").Retract("nosuch", "x"),
		"not-a-db-fact":        NewDelta().Add("move", "c", "d").Retract("move", "z", "z"),
		"derived-not-edb":      NewDelta().Retract("win", "b"),
		"arity-mismatch-add":   NewDelta().Add("move", "only-one"),
		"retract-arity":        NewDelta().Retract("move", "a"),
		// The conflicting fact must be IN the database, or retraction
		// validation rejects the batch before the clash check runs.
		"add-retract-conflict": NewDelta().Add("move", "a", "b").Retract("move", "a", "b"),
	}
	for name, d := range cases {
		t.Run(name, func(t *testing.T) {
			if err := sys.Apply(d); err == nil {
				t.Fatal("invalid delta accepted")
			}
			if sys.Epoch() != e0 {
				t.Fatalf("failed delta bumped the epoch")
			}
			if sys.NumFacts() != 3 {
				t.Fatalf("failed delta mutated the database")
			}
			wantTruth(t, sys, "win(b)", True)
		})
	}
	// The empty delta is a no-op, not an error.
	if err := sys.Apply(NewDelta()); err != nil || sys.Epoch() != e0 {
		t.Errorf("empty delta: err=%v epoch=%d, want nil/%d", err, sys.Epoch(), e0)
	}
}

// TestRetractRemovesAllOccurrences: the database is a multiset; a
// retraction removes every occurrence of the fact.
func TestRetractRemovesAllOccurrences(t *testing.T) {
	sys := loadGame(t)
	if err := sys.AddFact("move", "b", "c"); err != nil { // now twice in the db
		t.Fatal(err)
	}
	if sys.NumFacts() != 4 {
		t.Fatalf("NumFacts = %d, want 4", sys.NumFacts())
	}
	if err := sys.RetractFact("move", "b", "c"); err != nil {
		t.Fatal(err)
	}
	if sys.NumFacts() != 2 {
		t.Errorf("NumFacts = %d, want 2 (both occurrences gone)", sys.NumFacts())
	}
	wantTruth(t, sys, "win(b)", Undefined) // only the a↔b cycle remains
}

// TestSnapshotRebaseAcrossEpochs: materialized rungs carry across
// mutations — and answers on the rebased snapshot match a cold system
// loaded with the final database, including queries that name constants
// interned after the original snapshot.
func TestSnapshotRebaseAcrossEpochs(t *testing.T) {
	sys := loadGame(t)
	q, err := Prepare("? win(b).")
	if err != nil {
		t.Fatal(err)
	}
	snap0, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if ans, err := snap0.Answer(q); err != nil || ans != True {
		t.Fatalf("epoch-0 win(b) = %v (%v)", ans, err)
	}
	// Three mutations, snapshots taken in between so the rebase chain is
	// exercised (epoch 2 rebases onto epoch 1's rebased rungs).
	for i, f := range [][2]string{{"c", "d"}, {"d", "e"}, {"e", "f"}} {
		if err := sys.AddFact("move", f[0], f[1]); err != nil {
			t.Fatal(err)
		}
		snap, err := sys.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if snap.Epoch() != uint64(i+1) {
			t.Fatalf("snapshot epoch = %d, want %d", snap.Epoch(), i+1)
		}
		// The prepared query (compiled at epoch 0) reuses across epochs.
		if _, err := snap.Answer(q); err != nil {
			t.Fatal(err)
		}
		// A query naming the just-added constant resolves it in the
		// shared store, which the rebased rung evaluates on too.
		qNew, err := Prepare(fmt.Sprintf("? win(%s).", f[0]))
		if err != nil {
			t.Fatal(err)
		}
		got, err := snap.Answer(qNew)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := Load(gameSrc)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j <= i; j++ {
			edges := [][2]string{{"c", "d"}, {"d", "e"}, {"e", "f"}}
			if err := cold.AddFact("move", edges[j][0], edges[j][1]); err != nil {
				t.Fatal(err)
			}
		}
		want, err := cold.Answer(fmt.Sprintf("? win(%s).", f[0]))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("epoch %d: win(%s) = %v, want %v (cold)", i+1, f[0], got, want)
		}
	}
	// The epoch-0 snapshot still serves its own consistent view.
	if ans, err := snap0.Answer(q); err != nil || ans != True {
		t.Errorf("stale snapshot win(b) = %v (%v), want true", ans, err)
	}
}

// TestConcurrentApplyAndReads is the -race satellite: writers stream
// deltas (adds and retracts) while readers answer prepared queries from
// whatever snapshot is current and from deliberately stale ones.
func TestConcurrentApplyAndReads(t *testing.T) {
	sys := loadGame(t)
	q, err := Prepare("? win(b).")
	if err != nil {
		t.Fatal(err)
	}
	stale, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	const writers, readers, ops = 2, 4, 30
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				tgt := fmt.Sprintf("w%d_%d", w, i)
				if err := sys.Apply(NewDelta().Add("move", "c", tgt)); err != nil {
					t.Errorf("apply: %v", err)
					return
				}
				if err := sys.Apply(NewDelta().Retract("move", "c", tgt)); err != nil {
					t.Errorf("retract: %v", err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				snap, err := sys.Snapshot()
				if err != nil {
					t.Errorf("snapshot: %v", err)
					return
				}
				if _, err := snap.Answer(q); err != nil {
					t.Errorf("answer: %v", err)
					return
				}
				if ans, err := stale.Answer(q); err != nil || ans != True {
					t.Errorf("stale answer = %v (%v)", ans, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	wantTruth(t, sys, "win(b)", True) // every delta round-tripped
}

// TestParseFact covers the textual fact syntax used by the REPL and CLI
// retraction commands.
func TestParseFact(t *testing.T) {
	pred, args, err := ParseFact("move(a, b).")
	if err != nil || pred != "move" || len(args) != 2 || args[0] != "a" || args[1] != "b" {
		t.Errorf("ParseFact = %s(%v), %v", pred, args, err)
	}
	for _, bad := range []string{"move(X, b).", "move(a), q(b).", "not p(a).", "p(", ""} {
		if _, _, err := ParseFact(bad); err == nil {
			t.Errorf("ParseFact(%q) accepted", bad)
		}
	}
}

// TestFailedApplyDoesNotPoisonSchema: a delta that fails validation must
// not commit schema state either — a new predicate first seen in the
// failed batch stays uninterned, so its arity is not fixed by the
// failure.
func TestFailedApplyDoesNotPoisonSchema(t *testing.T) {
	sys := loadGame(t)
	// q is unknown; the batch declares it at arity 1 then 2 → rejected.
	if err := sys.Apply(NewDelta().Add("q", "a").Add("q", "a", "b")); err == nil {
		t.Fatal("conflicting new-predicate arities accepted")
	}
	// The predicate must still be free: a clean q/2 delta succeeds.
	if err := sys.Apply(NewDelta().Add("q", "x", "y")); err != nil {
		t.Fatalf("predicate poisoned by failed delta: %v", err)
	}
	// Same through LoadCSV: a ragged stream must not intern the pred.
	sys2 := loadGame(t)
	if _, err := sys2.LoadCSV("r", strings.NewReader("a, b\nragged\n")); err == nil {
		t.Fatal("ragged CSV accepted")
	}
	if err := sys2.AddFact("r", "only"); err != nil {
		t.Fatalf("predicate poisoned by failed CSV load: %v", err)
	}
}

// TestConflictingDeltaDoesNotPoisonSchema: the add/retract clash is
// detected before anything interns, so a new predicate riding in the
// rejected batch stays uninterned.
func TestConflictingDeltaDoesNotPoisonSchema(t *testing.T) {
	sys := loadGame(t)
	d := NewDelta().Add("brandnew", "a").Add("move", "a", "b").Retract("move", "a", "b")
	if err := sys.Apply(d); err == nil {
		t.Fatal("add/retract conflict accepted")
	}
	if err := sys.Apply(NewDelta().Add("brandnew", "x", "y")); err != nil {
		t.Fatalf("predicate poisoned by conflicting delta: %v", err)
	}
}
