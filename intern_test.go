package wfs

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/bench"
)

// storeSize is what a read must never change: the System's predicates,
// terms and atoms.
func storeSize(sys *System) [3]int {
	return [3]int{sys.store.NumPreds(), sys.store.Terms.Len(), sys.store.Len()}
}

// TestReadsNeverIntern: a warm System answers 10k reads naming fresh
// predicates and constants without growing its store. Unknown names are in
// no atom — a positive literal over one is false, `not` of one is true —
// and arity clashes give the error text of a store that interned them.
func TestReadsNeverIntern(t *testing.T) {
	sys := loadGame(t)
	for _, read := range []func() error{
		func() error { _, err := sys.Answer("? win(X)."); return err },
		func() error { _, _, err := sys.Select("? move(X,Y)."); return err },
		func() error { _, _, err := sys.ExplainAtom("win(b)"); return err },
		func() error { _, _, err := sys.WCheck("win(b)"); return err },
	} {
		if err := read(); err != nil {
			t.Fatal(err)
		}
	}
	before := storeSize(sys)
	snap, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	answer := func(src string) (Truth, error) {
		q, err := Prepare(src)
		if err != nil {
			t.Fatalf("prepare %s: %v", src, err)
		}
		return snap.Answer(q)
	}
	for i := 0; i < 4200; i++ {
		p, c := fmt.Sprintf("p%d", i), fmt.Sprintf("c%d", i)
		switch i % 5 {
		case 0:
			for src, want := range map[string]Truth{
				"? " + p + "(a).":                     False,
				"? win(" + c + ").":                   False,
				"? move(a,b), not " + p + "(a).":      True,
				"? move(a,b), not win(" + c + ").":    True,
				"? move(X,Y), X = " + c + ".":         False,
				"? move(a,b), " + c + " = " + c + ".": True,
			} {
				if got, err := answer(src); err != nil || got != want {
					t.Fatalf("%s = %v (%v), want %v", src, got, err, want)
				}
			}
		case 1:
			q, _ := Prepare("? move(X,Y), not " + p + "(X).")
			vars, rows, err := snap.Select(context.Background(), q, nil)
			if err != nil || len(vars) != 2 || len(rows) != 3 {
				t.Fatalf("select with not %s(X) = %v %v (%v), want 3 rows", p, vars, rows, err)
			}
			q, _ = Prepare("? " + p + "(X).")
			if vars, rows, err := snap.Select(context.Background(), q, nil); err != nil || len(vars) != 1 || len(rows) != 0 {
				t.Fatalf("select %s(X) = %v %v (%v), want no rows", p, vars, rows, err)
			}
		case 2:
			for _, src := range []string{p + "(a)", "win(" + c + ")"} {
				if tv, err := snap.TruthOf(src); err != nil || tv != False {
					t.Fatalf("TruthOf(%s) = %v (%v)", src, tv, err)
				}
			}
		case 3:
			if proof, ok, err := snap.Explain(p + "(" + c + ")"); err != nil || ok || proof != "" {
				t.Fatalf("Explain(%s(%s)) = %q %v (%v)", p, c, proof, ok, err)
			}
		case 4:
			if tv, st, err := snap.WCheck("win(" + c + ")"); err != nil || tv != False || st.ClosureAtoms != 0 {
				t.Fatalf("WCheck(win(%s)) = %v %+v (%v)", c, tv, st, err)
			}
		}
	}
	// Arity clashes report the store's arity error, known predicate or
	// not.
	for src, want := range map[string]string{
		"? win(a,b).": "line 1: atom: predicate win used with arity 2, previously 1: ? win(a, b).",
		"? ghost(X), ghost(X,Y).": "line 1: atom: predicate ghost used with arity 2, previously 1: " +
			"? ghost(X), ghost(X, Y).",
		"? move(X,Y), not foo(X), foo(a,b).": "line 1: atom: predicate foo used with arity 1, previously 2: " +
			"? move(X, Y), not foo(X), foo(a, b).",
	} {
		if _, err := answer(src); err == nil || err.Error() != want {
			t.Errorf("%s: error %v, want %q", src, err, want)
		}
	}
	if _, err := snap.TruthOf("win(a,b)"); err == nil ||
		err.Error() != "line 1: atom: predicate win used with arity 2, previously 1: ? win(a, b)." {
		t.Errorf("TruthOf(win(a,b)): error %v", err)
	}
	if _, err := snap.TruthOf("move(a,b), not ghost(a)"); err == nil ||
		err.Error() != `wfs: "move(a,b), not ghost(a)" is not a single ground atom` {
		t.Errorf("TruthOf of a conjunction: error %v", err)
	}
	if after := storeSize(sys); after != before {
		t.Errorf("reads grew the store: (preds, terms, atoms) %v → %v", before, after)
	}
}

// example4Pair is the seed pair onto_ladder adds and retracts: a fresh
// constant z whose t(z) holds.
func example4Pair(z string) (*Delta, *Delta) {
	return NewDelta().Add("r", z, z, "y"+z).Add("p", z, z), NewDelta().Retract("r", z, z, "y"+z).Retract("p", z, z)
}

// TestPreparedQueryAcrossEpochs: one prepared query serves every epoch of
// a System. Naming a constant no epoch has seen, it answers false and is
// resolved again on each snapshot; once every name is known its compile
// is cached once and reused.
func TestPreparedQueryAcrossEpochs(t *testing.T) {
	sys, err := Load(bench.Example4)
	if err != nil {
		t.Fatal(err)
	}
	q, _ := Prepare("? t(z9).")
	known, _ := Prepare("? p(0,Y), not q(Y).")
	answer := func(q *Query, want Truth) {
		t.Helper()
		snap, err := sys.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if got, err := snap.Answer(q); err != nil || got != want {
			t.Fatalf("epoch %d: %s = %v (%v), want %v", snap.Epoch(), q, got, err, want)
		}
	}
	answer(q, False)
	answer(known, True)
	if q.compiled.Load() != nil {
		t.Error("a compile with an unknown name was cached")
	}
	cached := known.compiled.Load()
	if cached == nil {
		t.Fatal("a fully resolved compile was not cached")
	}
	add, retract := example4Pair("z9")
	for i, step := range []struct {
		d    *Delta
		want Truth
	}{{add, True}, {retract, False}, {add, True}, {retract, False}} {
		if err := sys.Apply(step.d); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		answer(q, step.want)
		answer(known, True)
	}
	if known.compiled.Load() != cached {
		t.Error("the resolved compile was redone across epochs")
	}
}

// TestConcurrentInternAndRead (-race): a writer streams fresh-constant
// seed pairs onto_ladder-style while four readers build cold snapshots
// of whatever epoch is current and force their ladder rungs, so several
// builds intern into the one store at once. Every answer equals a
// from-scratch Load of that snapshot's facts.
func TestConcurrentInternAndRead(t *testing.T) {
	src := bench.Example4
	for i := 0; i < 6; i++ {
		src += fmt.Sprintf("r(k%d,k%d,m%d). p(k%d,k%d).\n", i, i, i, i, i)
	}
	sys, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Answer("? t(k0)."); err != nil {
		t.Fatal(err)
	}
	const rounds = 24
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < rounds; i++ {
			add, retract := example4Pair(fmt.Sprintf("z%d", i))
			if err := sys.Apply(add); err != nil {
				t.Error(err)
				return
			}
			if i%2 == 0 {
				if err := sys.Apply(retract); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					if i > 0 {
						return
					}
				default:
				}
				sys.mu.Lock()
				snap := sys.newSnapshotLocked(nil) // cold: every rung builds lazily
				sys.mu.Unlock()
				queries := []string{
					"? t(k1).", "? s(k2).", "? p(k3,Y), not q(Y).",
					fmt.Sprintf("? t(z%d).", i%rounds), fmt.Sprintf("? t(z%d), not ghost%d(z%d).", i, r, i),
					fmt.Sprintf("? t(fresh%d_%d).", r, i),
				}
				fresh, err := Load(bench.Example4 + factsSource(snap))
				if err != nil {
					t.Error(err)
					return
				}
				for _, qs := range queries {
					q, _ := Prepare(qs)
					got, err := snap.Answer(q)
					if err != nil {
						t.Error(err)
						return
					}
					if want, err := fresh.Answer(qs); err != nil || got != want {
						t.Errorf("epoch %d: %s = %v, from scratch %v (%v)", snap.Epoch(), qs, got, want, err)
					}
				}
			}
		}()
	}
	wg.Wait()
}

// factsSource renders a snapshot's database as source facts.
func factsSource(snap *Snapshot) string {
	var b strings.Builder
	for _, a := range snap.db {
		b.WriteString(snap.store.String(a))
		b.WriteString(".\n")
	}
	return b.String()
}
