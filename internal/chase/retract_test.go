package chase

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/atom"
	"repro/internal/bench"
	"repro/internal/program"
)

// randomGuardedSource draws a small guarded normal program: recursive
// existential rules (so the chase only stops at the depth cap), side
// atoms that park and wake, and negation. Predicates e/2 and f/1 hold
// the database.
func randomGuardedSource(rng *rand.Rand) string {
	preds := []struct {
		name  string
		arity int
	}{{"e", 2}, {"f", 1}, {"a", 1}, {"b", 2}, {"c", 1}, {"d", 2}}
	var b strings.Builder
	for n := 3 + rng.Intn(4); n > 0; n-- {
		g := preds[rng.Intn(len(preds))]
		vars := []string{"X", "Y"}[:g.arity]
		arg := func() string { return vars[rng.Intn(len(vars))] }
		body := []string{g.name + "(" + strings.Join(vars, ",") + ")"}
		lit := func() string {
			p := preds[rng.Intn(len(preds))]
			args := make([]string, p.arity)
			for i := range args {
				args[i] = arg()
			}
			return p.name + "(" + strings.Join(args, ",") + ")"
		}
		if rng.Intn(3) == 0 {
			body = append(body, lit())
		}
		if rng.Intn(2) == 0 {
			body = append(body, "not "+lit())
		}
		h := preds[2+rng.Intn(len(preds)-2)]
		head := make([]string, h.arity)
		for i := range head {
			head[i] = arg()
		}
		if h.arity == 2 && rng.Intn(3) == 0 {
			head[1] = "Z"
		}
		fmt.Fprintf(&b, "%s -> %s(%s).\n", strings.Join(body, ", "), h.name, strings.Join(head, ","))
	}
	return b.String()
}

// randomFact draws a database fact over four constants.
func randomFact(rng *rand.Rand) deltaOp {
	c := func() string { return fmt.Sprintf("k%d", rng.Intn(4)) }
	if rng.Intn(2) == 0 {
		return add("e", c(), c())
	}
	return add("f", c())
}

// TestRetractRandomScriptsMatchRun: on random guarded programs under a
// depth cap, every prefix of a random script of retractions and
// additions leaves a chase indistinguishable from a from-scratch Run —
// universe, depths, instances, statistics — and a deepening of it
// matches a deeper Run.
func TestRetractRandomScriptsMatchRun(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for pi := 0; pi < 80; pi++ {
		src := randomGuardedSource(rng)
		var facts []deltaOp
		for n := 4 + rng.Intn(5); n > 0; n-- {
			facts = append(facts, randomFact(rng))
		}
		var init strings.Builder
		for _, f := range facts {
			fmt.Fprintf(&init, "%s(%s).\n", f.pred, strings.Join(f.args, ","))
		}
		prog, db, st := compile(t, init.String()+src)
		opts := Options{MaxDepth: 2 + rng.Intn(3), MaxAtoms: 100_000}
		cur := Run(prog, db, opts)
		for step := 0; step < 15; step++ {
			what := fmt.Sprintf("program %d step %d\n%s", pi, step, src)
			if len(db) > 0 && rng.Intn(2) == 0 {
				gone := db[rng.Intn(len(db))]
				var next program.Database
				for _, a := range db {
					if a != gone {
						next = append(next, a)
					}
				}
				db = next
				res, ret := cur.Apply(prog, db, []atom.AtomID{gone}, nil, opts.MaxDepth, nil)
				if res == nil || res.Interrupted {
					t.Fatalf("%s: retraction refused", what)
				}
				for i, rec := range ret.Remap {
					if j := rec; j >= 0 && res.Ground[j] != cur.Ground[i] {
						t.Fatalf("%s: record %d moved to %d with different content", what, i, j)
					}
				}
				cur = res
			} else {
				var a atom.AtomID
				db, a = applyOp(t, st, db, randomFact(rng))
				cur = cur.ExtendDB(prog, db, []atom.AtomID{a})
			}
			want := Run(prog, db, opts)
			checkSameChase(t, st, cur, want)
			if g, w := cur.ComputeStats(), want.ComputeStats(); g != w {
				t.Fatalf("%s: stats %+v, from scratch %+v", what, g, w)
			}
			if g, w := fmt.Sprint(cur.DepthProfile()), fmt.Sprint(want.DepthProfile()); g != w {
				t.Fatalf("%s: depth profile %s, from scratch %s", what, g, w)
			}
		}
		deeper := opts
		deeper.MaxDepth += 2
		checkSameChase(t, st, cur.Extend(prog, deeper.MaxDepth), Run(prog, db, deeper))
	}
}

// winMoveChains is k disjoint win-move chains of l moves each.
func winMoveChains(k, l int) string {
	var b strings.Builder
	b.WriteString("move(X,Y), not win(Y) -> win(X).\n")
	for c := 0; c < k; c++ {
		for i := 0; i < l; i++ {
			fmt.Fprintf(&b, "move(n%d_%d, n%d_%d).\n", c, i, c, i+1)
		}
	}
	return b.String()
}

// TestRetractCostsWhatItKills: a retraction's walks visit the records and
// atoms downstream of the retracted fact, whatever the size of the
// rest of the forest — the same counts at ten times the chains.
func TestRetractCostsWhatItKills(t *testing.T) {
	type cost struct{ overdeleted, rederived, visited, dead int }
	var costs []cost
	for _, k := range []int{200, 2000} {
		prog, db, st := compile(t, winMoveChains(k, 50))
		res := Run(prog, db, Options{MaxDepth: 4})
		gone := mkfact(t, st, "move", "n7_25", "n7_26")
		var rest program.Database
		for _, a := range db {
			if a != gone {
				rest = append(rest, a)
			}
		}
		_, ret := res.Apply(prog, rest, []atom.AtomID{gone}, nil, 4, nil)
		costs = append(costs, cost{ret.Overdeleted, ret.Rederived, ret.Visited, len(ret.Dead)})
	}
	if costs[0] != costs[1] {
		t.Fatalf("k=200: %+v, k=2000: %+v", costs[0], costs[1])
	}
	// The fact and the one instance it guards die; win(n7_25) is taken
	// out and not rederived (n7_25 has no other move).
	if want := (cost{overdeleted: 2, rederived: 0, visited: costs[0].visited, dead: 1}); costs[0] != want {
		t.Fatalf("retraction cost %+v, want %+v", costs[0], want)
	}
}

// TestMixedDeltaCopiesOnce: a write that retracts one fact and adds
// another is one continuation, so it copies the per-atom state, the
// waiters and the record arrays once: it allocates about what the
// retraction alone does, not that plus a second continuation's copies.
// Each measurement chases afresh, so Apply takes the arena's tail claim
// and no sibling's arena copy is counted.
func TestMixedDeltaCopiesOnce(t *testing.T) {
	prog, db, st := compile(t, bench.UpdateFamily(200, 50))
	opts := Options{MaxDepth: 4, MaxAtoms: 1_000_000}
	gone := mkfact(t, st, "move", "n7_25", "n7_26")
	back := mkfact(t, st, "move", "n9_25", "n9_26")
	without := func(db program.Database, a atom.AtomID) program.Database {
		return slices.DeleteFunc(slices.Clone(db), func(b atom.AtomID) bool { return b == a })
	}
	base := without(db, back)
	allocated := func(newDB program.Database, added []atom.AtomID) uint64 {
		res := Run(prog, base, opts)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		next, _ := res.Apply(prog, newDB, []atom.AtomID{gone}, added, opts.MaxDepth, nil)
		runtime.ReadMemStats(&after)
		if next == nil || next.Interrupted {
			t.Fatal("Apply refused the write")
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	retract := allocated(without(base, gone), nil)
	mixed := allocated(append(without(base, gone), back), []atom.AtomID{back})
	if 10*mixed > 11*retract {
		t.Fatalf("the mixed write allocated %d B, the retraction alone %d B (%.2f×, want ≤ 1.1×)",
			mixed, retract, float64(mixed)/float64(retract))
	}
}

// TestRetractChurnStaysBounded: a long run of retract/re-add rounds —
// of one fact, and of ever fresh facts — keeps the arena within the
// compaction bound of a cold chase: no dead record stays in Ground, and
// the garbage in Body and Universe never exceeds a quarter.
func TestRetractChurnStaysBounded(t *testing.T) {
	prog, db, st := compile(t, example4+"r(1,1,2). p(1,1).\n"+winMoveChains(5, 6))
	opts := Options{MaxDepth: 4, MaxAtoms: 1_000_000}
	cold := Run(prog, db, opts)
	cur := cold
	compactions := 0
	for i := 0; i < 1000; i++ {
		// One fact off and on again, then a fresh pair in and out.
		f := mkfact(t, st, "move", "n2_3", "n2_4")
		fresh := []atom.AtomID{mkfact(t, st, "r", fmt.Sprint("z", i), fmt.Sprint("z", i), "y"), mkfact(t, st, "p", fmt.Sprint("z", i), fmt.Sprint("z", i))}
		for _, step := range [][2][]atom.AtomID{{nil, {f}}, {{f}, nil}, {fresh, nil}, {nil, fresh}} {
			in, out := step[0], step[1]
			next := make(program.Database, 0, len(db)+len(in))
			for _, a := range db {
				if len(out) == 0 || (a != out[0] && (len(out) < 2 || a != out[1])) {
					next = append(next, a)
				}
			}
			db = append(next, in...)
			if len(out) > 0 {
				var ret *Change
				cur, ret = cur.Apply(prog, db, out, nil, opts.MaxDepth, nil)
				if ret.Compacted {
					compactions++
				}
			} else {
				cur = cur.ExtendDB(prog, db, in)
			}
		}
		if len(cur.Ground) != len(cold.Ground) || len(cur.Instances) != len(cold.Instances) {
			t.Fatalf("round %d: %d records (%d instances), cold chase %d (%d)",
				i, len(cur.Ground), len(cur.Instances), len(cold.Ground), len(cold.Instances))
		}
		if 3*len(cur.Body) > 4*len(cold.Body)+8 || 3*len(cur.Universe) > 4*len(cold.Universe)+8 {
			t.Fatalf("round %d: body %d, universe %d; cold chase %d, %d",
				i, len(cur.Body), len(cur.Universe), len(cold.Body), len(cold.Universe))
		}
	}
	checkSameChase(t, st, cur, Run(prog, db, opts))
	if compactions == 0 {
		t.Fatal("the churn never compacted")
	}
}

// TestRetractionsDoNotAlias: retractions share the arena with their
// receiver like any continuation, so sibling retractions, extensions and
// deepenings of one published chase, run concurrently while a reader
// walks it, must leave it unchanged and each equal its own Run. Under
// -race a write into memory the receiver reads is reported.
func TestRetractionsDoNotAlias(t *testing.T) {
	prog, db, st := compile(t, example4+"r(1,1,2). p(1,1).\n"+winMoveChains(3, 5))
	opts := Options{MaxDepth: 4, MaxAtoms: 100_000}
	parent := Run(prog, db, opts)
	sum := func(r *Result) (n int64) {
		for _, in := range r.Ground {
			n = 31*n + int64(in.Head)*7 + int64(in.Off)
		}
		for _, b := range r.Body {
			n = 31*n + int64(b)
		}
		for _, g := range r.Atoms {
			n += int64(r.Local(g)) + int64(r.Depth(g))
		}
		return n
	}
	want := sum(parent)
	without := func(gone ...atom.AtomID) program.Database {
		var out program.Database
		for _, a := range db {
			if !slices.Contains(gone, a) {
				out = append(out, a)
			}
		}
		return out
	}
	m1, m2 := mkfact(t, st, "move", "n1_2", "n1_3"), mkfact(t, st, "move", "n0_0", "n0_1")
	p1 := mkfact(t, st, "p", "1", "1")
	extra := mkfact(t, st, "move", "n2_5", "n2_0")
	jobs := []struct {
		db  program.Database
		run func() *Result
		cap int
	}{
		{without(m1), func() *Result { r, _ := parent.Apply(prog, without(m1), []atom.AtomID{m1}, nil, 4, nil); return r }, 4},
		{without(m2, p1), func() *Result {
			r, _ := parent.Apply(prog, without(m2, p1), []atom.AtomID{m2, p1}, nil, 4, nil)
			return r
		}, 4},
		{append(without(), extra), func() *Result { return parent.ExtendDB(prog, append(without(), extra), []atom.AtomID{extra}) }, 4},
		{db, func() *Result { return parent.Extend(prog, 6) }, 6},
	}
	for round := 0; round < 3; round++ {
		got := make([]*Result, len(jobs))
		var wg sync.WaitGroup
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if s := sum(parent); s != want {
					t.Errorf("the receiver changed under its continuations")
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
		<-done
		for i, j := range jobs {
			checkSameChase(t, st, got[i], Run(prog, j.db, Options{MaxDepth: j.cap, MaxAtoms: 100_000}))
		}
	}
}

// TestRetractPushesGuardPastCap: an atom a retraction rederives at the
// depth cap is no longer expanded, so the instances it guarded stay dead
// — and a deepening expands it afresh.
func TestRetractPushesGuardPastCap(t *testing.T) {
	prog, db, st := compile(t, `
e(a). f(a).
e(X) -> g(X).
f(X) -> h(X).
h(X) -> i(X).
i(X) -> g(X).
g(X) -> k(X).
`)
	opts := Options{MaxDepth: 3, MaxAtoms: 1000}
	res := Run(prog, db, opts) // g(a) at depth 1 guards k(a) at depth 2
	db2, gone := applyOp(t, st, db, del("e", "a"))
	ret, _ := res.Retract(prog, db2) // g(a) now only at depth 3, the cap
	checkSameChase(t, st, ret, Run(prog, db2, opts))
	if ret.Derived(mkfact(t, st, "k", "a")) {
		t.Fatal("k(a) survived under a guard pushed to the cap")
	}
	checkSameChase(t, st, ret.Extend(prog, 5), Run(prog, db2, Options{MaxDepth: 5, MaxAtoms: 1000}))
	back := ret.ExtendDB(prog, db, []atom.AtomID{gone})
	checkSameChase(t, st, back, res)
}
