package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/atom"
	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/ground"
	"repro/internal/program"
	"repro/internal/term"
	"repro/internal/trace"
)

// storeDump renders everything compilation interned, in ID order — the
// predicates, Skolem functors, terms and atoms — plus the compiled rules
// and the database.
func storeDump(prog *program.Program, db program.Database, st *atom.Store) string {
	var b strings.Builder
	for p := atom.PredID(0); int(p) < st.NumPreds(); p++ {
		fmt.Fprintf(&b, "pred %d %s/%d\n", p, st.PredName(p), st.PredArity(p))
	}
	for f := term.FunctorID(0); int(f) < st.Terms.NumFunctors(); f++ {
		fmt.Fprintf(&b, "functor %d %s/%d\n", f, st.Terms.FunctorName(f), st.Terms.FunctorArity(f))
	}
	for t := term.ID(0); int(t) < st.Terms.Len(); t++ {
		fmt.Fprintf(&b, "term %d %s %s\n", t, st.Terms.Kind(t), st.Terms.String(t))
	}
	for a := atom.AtomID(0); int(a) < st.Len(); a++ {
		fmt.Fprintf(&b, "atom %d %s\n", a, st.String(a))
	}
	b.WriteString(prog.String())
	fmt.Fprintln(&b, "db", db)
	return b.String()
}

// goldenSources returns the programs the golden digests cover: the 12
// generator families at fixed sizes and the example programs, by name.
func goldenSources(t *testing.T) map[string]string {
	t.Helper()
	employment, err := EmploymentFamily(30).ToDatalog()
	if err != nil {
		t.Fatal(err)
	}
	srcs := map[string]string{
		"Example4":          Example4,
		"WinMoveChain":      WinMoveChain(50),
		"WinMoveCycle":      WinMoveCycle(20),
		"WinMoveRandom":     WinMoveRandom(40, 80, 3),
		"WinMoveComponents": WinMoveComponents(4, 6),
		"ReachChain":        ReachChain(30),
		"ExpChase":          ExpChase(4),
		"PermFamily":        PermFamily(4),
		"LadderFamily":      LadderFamily(5, 12),
		"UpdateFamily":      UpdateFamily(6, 7),
		"StratifiedFamily":  StratifiedFamily(40),
		"EmploymentFamily":  employment,
	}
	files, err := filepath.Glob("../../examples/*/*.dlg")
	if err != nil || len(files) == 0 {
		t.Fatalf("example programs: %v (%d found)", err, len(files))
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		srcs[filepath.Base(f)] = string(data)
	}
	return srcs
}

// TestCompiledIDsGolden pins every ID compilation assigns: the digests of
// storeDump for each generator family and each example program were
// recorded when facts still compiled as body-less rules, so loading facts
// as data must intern the same predicates, terms and atoms in the same
// order.
func TestCompiledIDsGolden(t *testing.T) {
	srcs := goldenSources(t)
	want := map[string]string{
		"EmploymentFamily":  "8bc7bcacbe045815",
		"Example4":          "a6fe38c07acf1b95",
		"ExpChase":          "6aea8079cd3afb0f",
		"LadderFamily":      "f6979dbbeb547bf5",
		"PermFamily":        "8da88013110e1d93",
		"ReachChain":        "e1fb30466a044c89",
		"StratifiedFamily":  "01683de2d6a58e4b",
		"UpdateFamily":      "a00b8a991fa37f00",
		"WinMoveChain":      "b69aa70bc3e02b93",
		"WinMoveComponents": "73007a0a7047ca4c",
		"WinMoveCycle":      "77a3203543ed8ca2",
		"WinMoveRandom":     "e18ac407908d68d7",
		"authorship.dlg":    "188a50ff3a255abe",
		"example4.dlg":      "a6fe38c07acf1b95",
		"game.dlg":          "30df298884475cd8",
	}
	for name, src := range srcs {
		prog, db, st := compileMust(src)
		sum := sha256.Sum256([]byte(storeDump(prog, db, st)))
		if got := hex.EncodeToString(sum[:8]); got != want[name] {
			t.Errorf("%s: store digest %s, want %s", name, got, want[name])
		}
	}
	if len(want) != len(srcs) {
		t.Errorf("%d digests for %d programs", len(want), len(srcs))
	}
}

// groundDigest renders a ground program as the multiset of its rules per
// head, every atom written as its global string and the bodies in stored
// order (guard first), facts included. Heads and each head's rules are
// sorted, so the digest is independent of how atoms and rules are
// numbered.
func groundDigest(gp *ground.Program, st *atom.Store) string {
	byHead := make(map[string][]string)
	name := func(i int32) string { return st.String(gp.Atoms[i]) }
	for ri := range gp.Rules {
		pos, neg := ruleBody(gp, ri)
		var b strings.Builder
		for _, a := range pos {
			b.WriteString(name(a) + ",")
		}
		b.WriteString("|")
		for _, a := range neg {
			b.WriteString(name(a) + ",")
		}
		h := name(gp.Rules[ri].Head)
		byHead[h] = append(byHead[h], b.String())
	}
	heads := make([]string, 0, len(byHead))
	for h := range byHead {
		heads = append(heads, h)
	}
	sort.Strings(heads)
	var b strings.Builder
	for _, h := range heads {
		rules := byHead[h]
		sort.Strings(rules)
		fmt.Fprintf(&b, "%s <- %s\n", h, strings.Join(rules, " ; "))
	}
	return b.String()
}

// TestGroundProgramDigestGolden pins the ground program the chase and the
// grounding hand to the solver, for every program of goldenSources: at a
// fixed depth, one rung deeper, after retracting the middle database
// fact, and after re-adding it. The digests were recorded before the
// instance arena replaced the per-instance body slices and the copied
// grounding, so the arena must produce the same rules per head.
func TestGroundProgramDigestGolden(t *testing.T) {
	const depth = 3
	want := map[string]string{
		"EmploymentFamily":  "b8adc959a9cb646f",
		"Example4":          "e6b1091229ace5f3",
		"ExpChase":          "605b558df0f8f456",
		"LadderFamily":      "c61a8d21a81f36e1",
		"PermFamily":        "1bbdf274c2d54f0b",
		"ReachChain":        "336c9c3bab75874c",
		"StratifiedFamily":  "cfbaa5c751b4e2f5",
		"UpdateFamily":      "5de806b65d9101fc",
		"WinMoveChain":      "54379f6721c9ffb2",
		"WinMoveComponents": "9767e3a2ea7ee901",
		"WinMoveCycle":      "5938b2de2fdbbddb",
		"WinMoveRandom":     "10073fef2698417e",
		"authorship.dlg":    "88ced746a571d7c8",
		"example4.dlg":      "e6b1091229ace5f3",
		"game.dlg":          "c532a4c53b045f20",
	}
	got := map[string]string{}
	for name, src := range goldenSources(t) {
		prog, db, st := compileMust(src)
		res := chase.Run(prog, db, chase.Options{MaxDepth: depth, MaxAtoms: 1_000_000})
		gp := ground.FromChase(res)
		var b strings.Builder
		b.WriteString("run\n" + groundDigest(gp, st))
		deeper := res.Extend(prog, depth+2)
		b.WriteString("extend\n" + groundDigest(ground.ExtendFromChase(gp, deeper), st))
		if len(db) > 0 {
			gone := db[len(db)/2]
			var mid program.Database
			for _, a := range db {
				if a != gone {
					mid = append(mid, a)
				}
			}
			reb, ok := delta.Rebase(res, gp, prog, mid, nil, []atom.AtomID{gone})
			if !ok {
				t.Fatalf("%s: retract refused", name)
			}
			b.WriteString("retract\n" + groundDigest(reb.GP, st))
			back, ok := delta.Rebase(reb.Chase, reb.GP, prog, db, []atom.AtomID{gone}, nil)
			if !ok {
				t.Fatalf("%s: re-add refused", name)
			}
			b.WriteString("readd\n" + groundDigest(back.GP, st))
		}
		sum := sha256.Sum256([]byte(b.String()))
		got[name] = hex.EncodeToString(sum[:8])
		if got[name] != want[name] {
			t.Errorf("%s: ground digest %s, want %s", name, got[name], want[name])
		}
	}
	if len(want) != len(got) {
		t.Errorf("%d digests for %d programs", len(want), len(got))
	}
}

// TestMixedApplyMatchesSequential: on every program of goldenSources,
// one chase.Result.Apply that retracts the middle database fact and
// re-adds the first, retracted the step before, gives what the
// retraction and then the addition give — the same ground program, the
// same instances and the same warm-start seeds — and a warm solve over
// its view equals a from-scratch chase, grounding and solve.
func TestMixedApplyMatchesSequential(t *testing.T) {
	const depth = 3
	opts := chase.Options{MaxDepth: depth, MaxAtoms: 1_000_000}
	without := func(db program.Database, a atom.AtomID) program.Database {
		return slices.DeleteFunc(slices.Clone(db), func(b atom.AtomID) bool { return b == a })
	}
	set := func(seeds ...[]atom.AtomID) map[atom.AtomID]bool {
		out := map[atom.AtomID]bool{}
		for _, s := range seeds {
			for _, a := range s {
				out[a] = true
			}
		}
		return out
	}
	for name, src := range goldenSources(t) {
		prog, db, st := compileMust(src)
		if len(db) == 1 { // a second fact to retract: a fresh one of the first's predicate
			p := st.PredOf(db[0])
			args := make([]term.ID, st.PredArity(p))
			for i := range args {
				args[i] = st.Terms.Const("fresh")
			}
			db = append(db, st.Atom(p, args))
		}
		gone, back := db[len(db)/2], db[0]
		res := chase.Run(prog, db, opts)
		db1 := without(db, back)
		res1, ch1 := res.Apply(prog, db1, []atom.AtomID{back}, nil, depth, nil)
		gp1 := ground.View(ground.FromChase(res), res1, ch1.Remap)
		gm1 := ground.AlternatingFixpoint(gp1)

		db2 := append(without(db1, gone), back)
		mixed, mch := res1.Apply(prog, db2, []atom.AtomID{gone}, []atom.AtomID{back}, depth, nil)
		mid, rch := res1.Apply(prog, without(db1, gone), []atom.AtomID{gone}, nil, depth, nil)
		seq, ach := mid.Apply(prog, db2, nil, []atom.AtomID{back}, depth, nil)
		mgp := ground.View(gp1, mixed, mch.Remap)
		sgp := ground.View(ground.View(gp1, mid, rch.Remap), seq, ach.Remap)
		if groundDigest(mgp, st) != groundDigest(sgp, st) {
			t.Errorf("%s: the mixed write's ground program differs from retract-then-add", name)
		}
		if !slices.Equal(mixed.Instances, seq.Instances) {
			t.Errorf("%s: %d instances, retract-then-add %d", name, len(mixed.Instances), len(seq.Instances))
		}
		if got, want := set(mch.Seeds), set(rch.Seeds, ach.Seeds); !maps.Equal(got, want) {
			t.Errorf("%s: %d seeds, retract-then-add %d", name, len(got), len(want))
		}

		gm := ground.IncrementalModel(mgp, gm1, mch.Seeds, ground.AlternatingFixpoint)
		scratch := chase.Run(prog, db2, opts)
		want := ground.AlternatingFixpoint(ground.FromChase(scratch))
		for _, g := range append(slices.Clone(scratch.Atoms), mixed.Atoms...) {
			if gv, wv := gm.TruthOfGlobal(g), want.TruthOfGlobal(g); gv != wv {
				t.Errorf("%s: truth(%s) = %v, from scratch %v", name, st.String(g), gv, wv)
			}
		}
	}
}

// TestDeepenWarmEqualsCold: on every program of goldenSources, at each
// rung of the default ladder (4, 6, 8, … up to saturation or 12), the
// model core.Build deepens from the previous rung — re-solving only the
// dependency cone of the appended records — equals a cold core.Build at
// that depth on every atom's truth and on the ground program. Some rung
// must take the warm path, or the test shows nothing.
func TestDeepenWarmEqualsCold(t *testing.T) {
	warmRungs := 0
	for name, src := range goldenSources(t) {
		prog, db, st := compileMust(src)
		var warm *core.Model
		for d := 4; d <= 12; d += 2 {
			tr := trace.New("build")
			deepened := warm != nil
			warm = core.Build(warm, prog, core.Options{}, d, db, nil, tr)
			tr.End()
			cold := core.Build(nil, prog, core.Options{}, d, db, nil, nil)
			if groundDigest(warm.GP, st) != groundDigest(cold.GP, st) {
				t.Errorf("%s depth %d: the deepened ground program differs from a cold one", name, d)
			}
			for _, g := range append(slices.Clone(cold.GP.Atoms), warm.GP.Atoms...) {
				if wv, cv := warm.Truth(g), cold.Truth(g); wv != cv {
					t.Errorf("%s depth %d: truth(%s) = %v deepened, %v cold", name, d, st.String(g), wv, cv)
				}
			}
			if warm.Exact != cold.Exact || warm.UsableDepth != cold.UsableDepth {
				t.Errorf("%s depth %d: exact/usable %v/%d deepened, %v/%d cold",
					name, d, warm.Exact, warm.UsableDepth, cold.Exact, cold.UsableDepth)
			}
			tr.Walk(func(s *trace.Span) {
				if deepened && s.Name() == "cone-solve" {
					warmRungs++
				}
			})
			if cold.Exact {
				break
			}
		}
	}
	if warmRungs == 0 {
		t.Error("no rung re-solved only its cone: the warm deepening went untested")
	}
	t.Logf("%d rungs re-solved only their cone", warmRungs)
}

func ruleBody(gp *ground.Program, ri int) (pos, neg []int32) {
	return gp.Pos(&gp.Rules[ri]), gp.Neg(&gp.Rules[ri])
}
