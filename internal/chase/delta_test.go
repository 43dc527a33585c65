package chase

import (
	"testing"

	"repro/internal/atom"
	"repro/internal/program"
	"repro/internal/term"
)

// mkfact interns the ground atom pred(args...) into st.
func mkfact(t *testing.T, st *atom.Store, pred string, args ...string) atom.AtomID {
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

// instKey identifies an instance by its (rule, guard) pair, which
// determines it uniquely (the expansion-once invariant).
func instKey(in Record) int64 { return int64(in.Rule.Idx)<<32 | int64(in.Pos[0]) }

// checkSameChase asserts got and want have the same derived universe with
// the same minimal depths and the same instance set (same heads per
// (rule, guard) pair), regardless of derivation order.
func checkSameChase(t *testing.T, st *atom.Store, got, want *Result) {
	t.Helper()
	if len(got.Atoms) != len(want.Atoms) {
		t.Fatalf("universe: %d atoms, want %d", len(got.Atoms), len(want.Atoms))
	}
	for _, a := range want.Atoms {
		if !got.Derived(a) {
			t.Fatalf("missing atom %s", st.String(a))
		}
		if got.Depth(a) != want.Depth(a) {
			t.Errorf("depth(%s) = %d, want %d", st.String(a), got.Depth(a), want.Depth(a))
		}
	}
	if len(got.Instances) != len(want.Instances) {
		t.Fatalf("instances: %d, want %d", len(got.Instances), len(want.Instances))
	}
	heads := make(map[int64]atom.AtomID, len(want.Instances))
	for _, rec := range want.Instances {
		in := want.Record(rec)
		heads[instKey(in)] = in.Head
	}
	for _, rec := range got.Instances {
		in := got.Record(rec)
		h, ok := heads[instKey(in)]
		if !ok {
			t.Fatalf("extra instance rule %d guard %s", in.Rule.Idx, st.String(in.Pos[0]))
		}
		if h != in.Head {
			t.Errorf("instance rule %d guard %s: head %s, want %s",
				in.Rule.Idx, st.String(in.Pos[0]), st.String(in.Head), st.String(h))
		}
	}
}

// deltaOp is one scripted mutation: an addition or a retraction of a fact.
type deltaOp struct {
	retract bool
	pred    string
	args    []string
}

func add(pred string, args ...string) deltaOp { return deltaOp{pred: pred, args: args} }
func del(pred string, args ...string) deltaOp { return deltaOp{retract: true, pred: pred, args: args} }

// applyOp mutates db at the set level.
func applyOp(t *testing.T, st *atom.Store, db program.Database, op deltaOp) (program.Database, atom.AtomID) {
	t.Helper()
	a := mkfact(t, st, op.pred, op.args...)
	if op.retract {
		out := make(program.Database, 0, len(db))
		for _, f := range db {
			if f != a {
				out = append(out, f)
			}
		}
		return out, a
	}
	return append(db[:len(db):len(db)], a), a
}

// TestDeltaOpsMatchFromScratch is the chase-level cross-check: a chain of
// ExtendDB/Retract continuations must be indistinguishable (universe,
// depths, instance set) from a from-scratch Run at every step.
func TestDeltaOpsMatchFromScratch(t *testing.T) {
	cases := []struct {
		name  string
		src   string
		depth int
		ops   []deltaOp
	}{
		{
			name: "side-atom-wake",
			src: `
a(1). a(2).
a(X), b(X) -> c(X).
c(X) -> d(X).
`,
			depth: 8,
			ops: []deltaOp{
				add("b", "1"),                // wakes the parked (rule, a(1)) waiter
				add("b", "2"),                // and the other one
				del("b", "1"),                // c(1), d(1) die
				add("b", "1"),                // and come back
				del("a", "1"),                // kills the whole 1-chain
				add("c", "7"),                // IDB predicate asserted directly as EDB
				del("c", "7"),                // and gone again
				add("d", "9"),                // leaf-only atom
				del("a", "2"), del("b", "2"), // empty everything but d(9)
			},
		},
		{
			name: "idb-depth-drop",
			src: `
e(a,b). e(b,c). e(c,d). s(a).
s(X) -> r(X).
r(X), e(X,Y) -> r(Y).
`,
			depth: 8,
			ops: []deltaOp{
				add("r", "c"), // already derived at depth 2: drops to 0, cascades to r(d)
				del("r", "c"), // derivation through the chain survives
				del("s", "a"), // now the whole chain dies
				add("s", "b"), // partial chain from b
			},
		},
		{
			name:  "existential-negation",
			src:   example4,
			depth: 6,
			ops: []deltaOp{
				add("p", "0", "1"),
				add("r", "1", "1", "2"),
				del("p", "0", "0"),
				add("p", "0", "0"),
				del("r", "0", "0", "1"),
			},
		},
		{
			name: "winmove",
			src: `
move(a,b). move(b,c). move(c,d).
move(X,Y), not win(Y) -> win(X).
`,
			depth: 8,
			ops: []deltaOp{
				add("move", "d", "e"),
				del("move", "b", "c"),
				add("move", "c", "a"),
				del("move", "a", "b"),
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog, db, st := compile(t, tc.src)
			opts := Options{MaxDepth: tc.depth, MaxAtoms: 100_000}
			cur := Run(prog, db, opts)
			for i, op := range tc.ops {
				var changed atom.AtomID
				db, changed = applyOp(t, st, db, op)
				if op.retract {
					next, dead := cur.Retract(prog, db)
					if next == nil {
						t.Fatalf("op %d: Retract returned nil", i)
					}
					// Every dead index must reference a real instance of
					// the predecessor.
					for _, ci := range dead {
						if int(ci) >= len(cur.Ground) || cur.Ground[ci].Rule < 0 {
							t.Fatalf("op %d: dead index %d out of range", i, ci)
						}
					}
					cur = next
				} else {
					next := cur.ExtendDB(prog, db, []atom.AtomID{changed})
					if next == nil {
						t.Fatalf("op %d: ExtendDB returned nil", i)
					}
					cur = next
				}
				scratch := Run(prog, db, opts)
				checkSameChase(t, st, cur, scratch)
			}
		})
	}
}

// TestRetractThenDeepen: a retraction continuation must still support the
// depth-dimension Extend — frontier atoms and carried waiters resume.
func TestRetractThenDeepen(t *testing.T) {
	prog, db, st := compile(t, `
s(a). s(b).
s(X) -> n(X, Y).
n(X, Y) -> n(Y, Z).
`)
	opts := Options{MaxDepth: 4, MaxAtoms: 100_000}
	cur := Run(prog, db, opts)
	db2, _ := applyOp(t, st, db, del("s", "b"))
	ret, _ := cur.Retract(prog, db2)
	deep := ret.Extend(prog, 7)
	scratch := Run(prog, db2, Options{MaxDepth: 7, MaxAtoms: 100_000})
	checkSameChase(t, st, deep, scratch)
}

// TestRetractRestoresParkedWaiter: a (rule, guard) pair parked on a side
// atom before the retraction must still fire when a later ExtendDB
// supplies the side atom.
func TestRetractRestoresParkedWaiter(t *testing.T) {
	prog, db, st := compile(t, `
a(1). a(2). z(9).
a(X), b(X) -> c(X).
`)
	opts := Options{MaxDepth: 4, MaxAtoms: 100_000}
	cur := Run(prog, db, opts) // both (rule, a(i)) pairs parked on b(i)
	db2, _ := applyOp(t, st, db, del("z", "9"))
	ret, _ := cur.Retract(prog, db2)
	db3, b1 := applyOp(t, st, db2, add("b", "1"))
	ext := ret.ExtendDB(prog, db3, []atom.AtomID{b1})
	scratch := Run(prog, db3, opts)
	checkSameChase(t, st, ext, scratch)
	c1 := mkfact(t, st, "c", "1")
	if !ext.Derived(c1) {
		t.Fatal("woken waiter did not fire after retraction continuation")
	}
}

// TestDeltaOpsRefuseTruncated: both continuations bail on a truncated
// chase, whose instance set is incomplete.
func TestDeltaOpsRefuseTruncated(t *testing.T) {
	prog, db, st := compile(t, "seed(c).\nseed(X) -> seed(Y).")
	res := Run(prog, db, Options{MaxDepth: 10, MaxAtoms: 5})
	if !res.Truncated {
		t.Fatal("expected truncation")
	}
	a := mkfact(t, st, "seed", "d")
	if got := res.ExtendDB(prog, append(db, a), []atom.AtomID{a}); got != nil {
		t.Error("ExtendDB accepted a truncated chase")
	}
	if got, _ := res.Retract(prog, db[:0]); got != nil {
		t.Error("Retract accepted a truncated chase")
	}
}
