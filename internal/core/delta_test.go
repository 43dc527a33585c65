package core

import (
	"maps"
	"sync"
	"testing"

	"repro/internal/atom"
	"repro/internal/program"
	"repro/internal/term"
)

// factAtom interns pred(args...) into st.
func factAtom(t *testing.T, st *atom.Store, pred string, args ...string) atom.AtomID {
	t.Helper()
	p, err := st.Pred(pred, len(args))
	if err != nil {
		t.Fatal(err)
	}
	ts := make([]term.ID, len(args))
	for i, a := range args {
		ts[i] = st.Terms.Const(a)
	}
	return st.Atom(p, ts)
}

type dbOp struct {
	retract bool
	pred    string
	args    []string
}

func opAdd(pred string, args ...string) dbOp { return dbOp{pred: pred, args: args} }
func opDel(pred string, args ...string) dbOp { return dbOp{retract: true, pred: pred, args: args} }

func applyDBOp(t *testing.T, st *atom.Store, db program.Database, op dbOp) program.Database {
	t.Helper()
	a := factAtom(t, st, op.pred, op.args...)
	if op.retract {
		out := make(program.Database, 0, len(db))
		for _, f := range db {
			if f != a {
				out = append(out, f)
			}
		}
		return out
	}
	return append(db[:len(db):len(db)], a)
}

// checkSameModel compares an incrementally maintained model against a
// from-scratch one: derived universe with minimal depths, instance count,
// three-valued truth on every global atom of either universe, and the
// exactness/guard-band metadata.
func checkSameModel(t *testing.T, st *atom.Store, got, want *Model) {
	t.Helper()
	if len(got.Chase.Atoms) != len(want.Chase.Atoms) {
		t.Fatalf("universe: %d atoms, want %d", len(got.Chase.Atoms), len(want.Chase.Atoms))
	}
	for _, a := range want.Chase.Atoms {
		if !got.Chase.Derived(a) {
			t.Fatalf("incremental chase missing %s", st.String(a))
		}
		if got.Chase.Depth(a) != want.Chase.Depth(a) {
			t.Errorf("depth(%s) = %d, want %d", st.String(a), got.Chase.Depth(a), want.Chase.Depth(a))
		}
	}
	if len(got.Chase.Instances) != len(want.Chase.Instances) {
		t.Fatalf("instances: %d, want %d", len(got.Chase.Instances), len(want.Chase.Instances))
	}
	for _, a := range want.Chase.Atoms {
		if gv, wv := got.Truth(a), want.Truth(a); gv != wv {
			t.Errorf("truth(%s) = %v, want %v", st.String(a), gv, wv)
		}
	}
	for _, a := range got.Chase.Atoms {
		if gv, wv := got.Truth(a), want.Truth(a); gv != wv {
			t.Errorf("truth(%s) = %v, want %v", st.String(a), gv, wv)
		}
	}
	if got.Exact != want.Exact || got.UsableDepth != want.UsableDepth {
		t.Errorf("exact/usable = %v/%d, want %v/%d",
			got.Exact, got.UsableDepth, want.Exact, want.UsableDepth)
	}
}

// deltaScripts are the satellite-mandated workloads: add-only,
// retract-only, and mixed mutation sequences over programs exercising
// negation, existentials, and undefined truth values.
var deltaScripts = []struct {
	name string
	src  string
	ops  []dbOp
}{
	{
		name: "add-only",
		src: `
move(a,b). move(b,c).
move(X,Y), not win(Y) -> win(X).
`,
		ops: []dbOp{
			opAdd("move", "c", "d"),
			opAdd("move", "d", "a"), // closes a cycle: undefined region appears
			opAdd("move", "e", "e"), // disjoint self-loop
			opAdd("win", "q"),       // IDB predicate as a direct fact
		},
	},
	{
		name: "retract-only",
		src: `
move(a,b). move(b,c). move(c,d). move(d,a). move(x,y).
move(X,Y), not win(Y) -> win(X).
`,
		ops: []dbOp{
			opDel("move", "d", "a"), // breaks the cycle: undefined collapses
			opDel("move", "x", "y"),
			opDel("move", "a", "b"),
		},
	},
	{
		name: "mixed-existential",
		src: `
r(0,0,1).
p(0,0).
r(X,Y,Z) -> r(X,Z,W).
r(X,Y,Z), p(X,Y), not q(Z) -> p(X,Z).
r(X,Y,Z), not p(X,Y) -> q(Z).
r(X,Y,Z), not p(X,Z) -> s(X).
p(X,Y), not s(X) -> t(X).
`,
		ops: []dbOp{
			opAdd("p", "0", "1"),
			opDel("p", "0", "0"),
			opAdd("r", "1", "0", "0"),
			opDel("r", "0", "0", "1"),
			opAdd("p", "0", "0"),
		},
	},
}

// TestApplyDeltaMatchesFromScratch is the tentpole cross-check: after
// every scripted mutation, each rung of the adaptive ladder, carried
// across the delta by RebaseModel the way a snapshot rung is, must be
// indistinguishable — universe, depths, instance count, three-valued
// model, exactness — from a model built from scratch on the mutated
// database, and each reference WFS operator run on the rebased grounding
// must reproduce the warm-started model.
func TestApplyDeltaMatchesFromScratch(t *testing.T) {
	depths := []int{4, 6, 8}
	for _, script := range deltaScripts {
		for _, ref := range references {
			t.Run(script.name+"/"+ref.name, func(t *testing.T) {
				prog, db, _, st := compile(t, script.src)
				e := NewEngine(prog, db, Options{})
				rungs := make([]*Model, len(depths))
				for j, d := range depths {
					rungs[j] = e.EvaluateAtDepth(d) // warm every rung before mutating
				}
				for i, op := range script.ops {
					db = applyDBOp(t, st, db, op)
					for j, d := range depths {
						rungs[j] = RebaseModel(rungs[j], prog, e.Opts, d, db)
						want := NewEngine(prog, db, Options{}).EvaluateAtDepth(d)
						t.Logf("op %d depth %d", i, d)
						checkSameModel(t, st, rungs[j], want)
						if !ref.wfs(rungs[j].GP).Equal(rungs[j].GM) {
							t.Errorf("op %d depth %d: %s disagrees with the rebased model", i, d, ref.name)
						}
					}
				}
			})
		}
	}
}

// TestRebaseModelNoChangeReturnsReceiver: a rebase over an unchanged
// database (at the set level) must share the previous model outright.
func TestRebaseModelNoChangeReturnsReceiver(t *testing.T) {
	prog, db, _, _ := compile(t, example4)
	e := NewEngine(prog, db, Options{})
	m := e.EvaluateAtDepth(6)
	// Same set, different multiset: duplicate the first fact.
	db2 := append(db[:len(db):len(db)], db[0])
	if got := RebaseModel(m, prog, e.Opts, 6, db2); got != m {
		t.Error("multiplicity-only rebase rebuilt the model")
	}
}

// TestRebaseModelTruncatedFallsBack: a truncated chase cannot be rebased
// incrementally; the rebase must still produce a correct cold model.
func TestRebaseModelTruncatedFallsBack(t *testing.T) {
	prog, db, _, st := compile(t, "seed(c).\nseed(X) -> next(X).")
	opts := Options{MaxAtoms: 2}
	e := NewEngine(prog, db, opts)
	m := e.EvaluateAtDepth(4)
	if !m.Chase.ComputeStats().Truncated {
		t.Fatal("expected truncation")
	}
	db2 := append(db[:len(db):len(db)], factAtom(t, st, "seed", "d"))
	got := RebaseModel(m, prog, e.Opts, 4, db2)
	want := NewEngine(prog, db2, opts).EvaluateAtDepth(4)
	if len(got.Chase.Atoms) != len(want.Chase.Atoms) {
		t.Errorf("fallback universe %d atoms, want %d", len(got.Chase.Atoms), len(want.Chase.Atoms))
	}
	// With no write there is nothing to rebuild: the deeper chase of the
	// same database truncates too, so a deepening keeps the chase.
	if deeper := Build(m, prog, e.Opts, 6, db, nil, nil); deeper.Chase != m.Chase {
		t.Error("deepening a truncated chase with no write re-chased")
	}
}

// TestApplyDeltaThenDeepen: after a delta, a depth no rung was evaluated
// at is reached from the rebased depth-4 rung — by extending its chase,
// as the next snapshot rung does, or by rebasing straight to the deeper
// depth — and both match a from-scratch evaluation there.
func TestApplyDeltaThenDeepen(t *testing.T) {
	prog, db, _, st := compile(t, example4)
	e := NewEngine(prog, db, Options{})
	m4 := e.EvaluateAtDepth(4)
	db2 := applyDBOp(t, st, db, opAdd("p", "0", "1"))
	want := NewEngine(prog, db2, Options{}).EvaluateAtDepth(7)
	rebased := RebaseModel(m4, prog, e.Opts, 4, db2)
	checkSameModel(t, st, Build(rebased, prog, e.Opts, 7, db2, nil, nil), want)
	checkSameModel(t, st, RebaseModel(m4, prog, e.Opts, 7, db2), want)
}

// TestSiblingContinuationsDoNotAlias: two different deltas and a deeper
// rung, all continued from one parent model at once, share its instance
// arena; only the first to take the tail may append to it in place, and
// nothing may write what the parent or a sibling reads. Each must equal
// its from-scratch evaluation while the parent keeps answering, and the
// parent's answers must not move.
func TestSiblingContinuationsDoNotAlias(t *testing.T) {
	const src = `
move(a,b). move(b,c). move(c,d). move(d,e). move(e,a). move(b,f).
move(X,Y), not win(Y) -> win(X).
move(X,Y) -> reach(X,Z).
reach(X,Z) -> reach(Z,W).
reach(X,Z), not win(X) -> lost(X).
`
	st := atom.NewStore(term.NewStore())
	prog, db, _, err := program.CompileText(src, st)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{GuardBand: 0}.withDefaults()
	const depth = 3
	parent := NewEngine(prog, db, opts).EvaluateAtDepth(depth)
	truths := func(m *Model) map[atom.AtomID]string {
		out := make(map[atom.AtomID]string)
		for i, g := range m.GP.Atoms {
			out[g] = m.GM.Truth[i].String()
		}
		return out
	}
	before := truths(parent)
	q, err := program.ParseQuery("? win(X), not lost(X).", st)
	if err != nil {
		t.Fatal(err)
	}
	wantAnswer := parent.Answer(q)

	dbAdd := applyDBOp(t, st, db, opAdd("move", "f", "g"))
	dbAdd2 := applyDBOp(t, st, db, opAdd("move", "d", "b"))
	dbDel := applyDBOp(t, st, applyDBOp(t, st, db, opDel("move", "e", "a")), opAdd("move", "c", "a"))
	type job struct {
		name  string
		run   func() *Model
		db    program.Database
		depth int
	}
	jobs := []job{
		{"add", func() *Model { return RebaseModel(parent, prog, opts, depth, dbAdd) }, dbAdd, depth},
		{"add-other", func() *Model { return RebaseModel(parent, prog, opts, depth, dbAdd2) }, dbAdd2, depth},
		{"retract-add", func() *Model { return RebaseModel(parent, prog, opts, depth, dbDel) }, dbDel, depth},
		{"deeper", func() *Model { return Build(parent, prog, opts, depth+3, db, nil, nil) }, db, depth + 3},
	}
	for round := 0; round < 3; round++ {
		got := make([]*Model, len(jobs))
		var wg sync.WaitGroup
		stop := make(chan struct{})
		readerDone := make(chan struct{})
		go func() {
			defer close(readerDone)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if a := parent.Answer(q); a != wantAnswer {
					t.Errorf("parent answer moved to %v, want %v", a, wantAnswer)
					return
				}
			}
		}()
		for i, j := range jobs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = j.run()
			}()
		}
		wg.Wait()
		close(stop)
		<-readerDone
		for i, j := range jobs {
			want := NewEngine(prog, j.db, opts).EvaluateAtDepth(j.depth)
			t.Run(j.name, func(t *testing.T) { checkSameModel(t, st, got[i], want) })
		}
		if after := truths(parent); !maps.Equal(after, before) {
			t.Fatalf("round %d: the parent's model changed under its continuations", round)
		}
	}
}
