package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/atom"
	"repro/internal/ground"
	"repro/internal/program"
	"repro/internal/term"
)

func TestQueryEqualities(t *testing.T) {
	prog, db, _, st := compile(t, `
likes(ann, bob). likes(bob, ann). likes(cid, cid).
`)
	e := NewEngine(prog, db, Options{})
	for _, tc := range []struct {
		q    string
		want ground.Truth
	}{
		{"? likes(X, Y), X = Y.", ground.True}, // cid likes cid
		{"? likes(X, Y), X = ann, Y = bob.", ground.True},
		{"? likes(X, Y), X = ann, Y = ann.", ground.False},
		{"? likes(X, X).", ground.True},
		{"? likes(X, Y), X = Y, X = ann.", ground.False},
		{"? likes(ann, X), X = bob.", ground.True},
		{"? likes(X, Y), ann = X.", ground.True}, // constant on the left
	} {
		q, err := program.ParseQuery(tc.q, st)
		if err != nil {
			t.Fatalf("parse %q: %v", tc.q, err)
		}
		if got, _, _ := e.Answer(q); got != tc.want {
			t.Errorf("%s = %v, want %v", tc.q, got, tc.want)
		}
	}
}

func TestQueryEqualityUnsat(t *testing.T) {
	prog, db, _, st := compile(t, "p(a).")
	e := NewEngine(prog, db, Options{})
	for _, qs := range []string{
		"? p(X), X = a, X = b.",
		"? p(X), a = b.",
		"? p(X), X = Y, Y = b, X = a.",
	} {
		q, err := program.ParseQuery(qs, st)
		if err != nil {
			t.Fatalf("parse %q: %v", qs, err)
		}
		if !q.Unsat {
			t.Errorf("%s not marked Unsat", qs)
		}
		if got, _, _ := e.Answer(q); got != ground.False {
			t.Errorf("%s = %v, want false", qs, got)
		}
	}
}

func TestQueryEqualityMakesNegativeSafe(t *testing.T) {
	prog, db, _, st := compile(t, "p(a).\nq(b).")
	e := NewEngine(prog, db, Options{})
	// Y appears only in the negative literal but is equality-bound to a
	// constant: safe.
	q, err := program.ParseQuery("? p(X), Y = b, not q(Y).", st)
	if err != nil {
		t.Fatalf("equality-bound negative rejected: %v", err)
	}
	if got, _, _ := e.Answer(q); got != ground.False { // q(b) is true
		t.Errorf("answer = %v, want false", got)
	}
	q2, err := program.ParseQuery("? p(X), Y = c, not q(Y).", st)
	if err != nil {
		t.Fatal(err)
	}
	if got, _, _ := e.Answer(q2); got != ground.True { // q(c) never derived
		t.Errorf("answer = %v, want true", got)
	}
	// Unbound equality chain stays unsafe.
	if _, err := program.ParseQuery("? p(X), Y = Z, not q(Y).", st); err == nil {
		t.Errorf("unsafe equality chain accepted")
	}
}

func TestSelectTuplesOverConstants(t *testing.T) {
	prog, db, _, st := compile(t, `
person(ann). person(bob). person(cid).
employed(ann).
person(X) -> hasID(X, Y).
person(X), not employed(X) -> unemployed(X).
`)
	e := NewEngine(prog, db, Options{})
	m := e.Evaluate()

	q, err := program.ParseQuery("? unemployed(X).", st)
	if err != nil {
		t.Fatal(err)
	}
	tuples := m.Select(q)
	if len(tuples) != 2 {
		t.Fatalf("tuples = %d, want 2", len(tuples))
	}
	// Ordered lexicographically: bob, cid.
	if st.Terms.String(tuples[0][0]) != "bob" || st.Terms.String(tuples[1][0]) != "cid" {
		t.Errorf("tuples = [%s, %s]", st.Terms.String(tuples[0][0]), st.Terms.String(tuples[1][0]))
	}

	// hasID binds Y to nulls: those are not tuples over ∆ (§2.1), so the
	// two-variable query has no answers, while projecting X alone via an
	// equality-free one-variable query does.
	q2, err := program.ParseQuery("? hasID(X, Y).", st)
	if err != nil {
		t.Fatal(err)
	}
	if tuples := m.Select(q2); len(tuples) != 0 {
		t.Errorf("null-valued tuples leaked into answers: %d", len(tuples))
	}
}

func TestSelectDeduplicates(t *testing.T) {
	prog, db, _, st := compile(t, `
edge(a,b). edge(a,c).
edge(X, Y) -> src(X).
`)
	m := NewEngine(prog, db, Options{}).Evaluate()
	q, err := program.ParseQuery("? src(X).", st)
	if err != nil {
		t.Fatal(err)
	}
	if tuples := m.Select(q); len(tuples) != 1 {
		t.Errorf("tuples = %d, want 1 (deduplicated)", len(tuples))
	}
}

func TestUndefinedQueryAnswer(t *testing.T) {
	prog, db, _, st := compile(t, `
move(a,b). move(b,a). move(c,dend).
move(X,Y), not win(Y) -> win(X).
`)
	e := NewEngine(prog, db, Options{})
	for _, tc := range []struct {
		q    string
		want ground.Truth
	}{
		{"? win(a).", ground.Undefined},
		{"? win(c).", ground.True},
		{"? win(dend).", ground.False},
		{"? win(a), win(c).", ground.Undefined}, // undefined ∧ true
		{"? win(dend), win(c).", ground.False},  // false ∧ true
		{"? not win(a).", ground.Undefined},     // ¬undefined
		{"? not win(dend).", ground.True},       // ¬false
		{"? win(c), not win(a).", ground.Undefined},
	} {
		q, err := program.ParseQuery(tc.q, st)
		if err != nil {
			t.Fatalf("parse %q: %v", tc.q, err)
		}
		if got := e.Evaluate().Answer(q); got != tc.want {
			t.Errorf("%s = %v, want %v", tc.q, got, tc.want)
		}
	}
}

func TestBindingsEnumeration(t *testing.T) {
	prog, db, _, st := compile(t, "p(a). p(b). p(c).")
	m := NewEngine(prog, db, Options{}).Evaluate()
	q, err := program.ParseQuery("? p(X).", st)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	m.Bindings(q, func(sub atom.Subst) bool { n++; return true })
	if n != 3 {
		t.Errorf("bindings = %d, want 3", n)
	}
	// Early termination.
	n = 0
	m.Bindings(q, func(sub atom.Subst) bool { n++; return false })
	if n != 1 {
		t.Errorf("early-stop bindings = %d, want 1", n)
	}
}

func TestWCheckGoalDirectedAgreesWithSaturation(t *testing.T) {
	// A program with two predicate "worlds": the goal's world (win/move)
	// and an unrelated existential world (p/q chain). Goal-directed
	// checking must skip the latter entirely.
	src := `
move(a,b). move(b,c). move(c,a).
move(X,Y), not win(Y) -> win(X).
seed(s0).
seed(X) -> p(X, Y).
p(X, Y), not q(Y) -> q(X).
`
	prog, db, _, st := compile(t, src)
	e := NewEngine(prog, db, Options{Depth: 6})
	m := e.Evaluate()
	for i, g := range m.GP.Atoms {
		if st.PredName(st.PredOf(g)) != "win" {
			continue
		}
		got, stats := WCheckGoalDirected(prog, db, g, Options{Depth: 6})
		if got != m.GM.Truth[i] {
			t.Errorf("goal-directed %s = %v, saturated %v", st.String(g), got, m.GM.Truth[i])
		}
		if stats.RelevantPreds >= stats.TotalPreds {
			t.Errorf("relevance closure did not shrink: %+v", stats)
		}
		if stats.RelevantRules >= stats.TotalRules {
			t.Errorf("rule restriction did not shrink: %+v", stats)
		}
	}
}

func TestWCheckGoalDirectedRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	for round := 0; round < 60; round++ {
		src := randomGuardedSource(rng)
		st := atom.NewStore(term.NewStore())
		prog, db, _, err := program.CompileText(src, st)
		if err != nil {
			t.Fatal(err)
		}
		m := NewEngine(prog, db, Options{Depth: 5}).Evaluate()
		for i, g := range m.GP.Atoms {
			if i%3 != 0 {
				continue // sample
			}
			got, _ := WCheckGoalDirected(prog, db, g, Options{Depth: 5})
			if got != m.GM.Truth[i] {
				t.Fatalf("round %d: goal-directed %s = %v, saturated %v\n%s",
					round, st.String(g), got, m.GM.Truth[i], src)
			}
		}
	}
}

func TestRelevantPredicates(t *testing.T) {
	prog, _, _, st := compile(t, `
a(X) -> b(X).
b(X), not c(X) -> d(X).
e(X) -> f(X).
`)
	dp, _ := st.LookupPred("d")
	rel := RelevantPredicates(prog, []atom.PredID{dp})
	for _, name := range []string{"d", "b", "c", "a"} {
		p, _ := st.LookupPred(name)
		if !rel[p] {
			t.Errorf("%s should be relevant to d", name)
		}
	}
	for _, name := range []string{"e", "f"} {
		p, _ := st.LookupPred(name)
		if rel[p] {
			t.Errorf("%s should not be relevant to d", name)
		}
	}
}

// scanHom is the matcher this package used before the indexed one, kept as
// the reference the differential tests compare findHom against: positive
// literals are joined in query order, each by a scan of its predicate's
// whole candidate list, and negative literals are checked after the last
// positive one.
func scanHom(m *Model, pos, neg []atom.Pattern, numVars int, strict bool, cb func(atom.Subst) bool) bool {
	st := m.Chase.Prog.Store
	perPred := map[atom.PredID][]atom.AtomID{}
	for i, g := range m.GP.Atoms {
		if m.UsableDepth >= 0 && m.Chase.Depth(g) > m.UsableDepth {
			continue
		}
		if t := m.GM.Truth[i]; t == ground.True || !strict && t == ground.Undefined {
			perPred[st.PredOf(g)] = append(perPred[st.PredOf(g)], g)
		}
	}
	sub := atom.NewSubst(numVars)
	var trail []int32
	found := false
	checkNeg := func() bool {
		for _, p := range neg {
			t := ground.False
			if a, ok := st.InstantiateLookup(p, sub); ok {
				t = m.Truth(a)
			}
			if t == ground.True || strict && t != ground.False {
				return false
			}
		}
		return true
	}
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(pos) {
			if !checkNeg() {
				return true
			}
			found = true
			return cb != nil && cb(sub)
		}
		for _, a := range perPred[pos[i].Pred] {
			mark := len(trail)
			if st.Match(pos[i], a, sub, &trail) {
				more := rec(i + 1)
				atom.Undo(sub, &trail, mark)
				if !more {
					return false
				}
			}
		}
		return true
	}
	rec(0)
	return found
}

// homSet enumerates every homomorphism a matcher finds, as a sorted list
// of rendered substitutions.
func homSet(st *atom.Store, enum func(cb func(atom.Subst) bool)) []string {
	var out []string
	enum(func(sub atom.Subst) bool {
		parts := make([]string, len(sub))
		for i, t := range sub {
			parts[i] = "_"
			if t != term.None {
				parts[i] = st.Terms.String(t)
			}
		}
		out = append(out, strings.Join(parts, ","))
		return true
	})
	sort.Strings(out)
	return out
}

// scanSelect is Model.Select over scanHom, with the textual dedup key the
// old implementation used.
func scanSelect(m *Model, q *program.Query) [][]term.ID {
	if q.Unsat {
		return nil
	}
	st := m.Chase.Prog.Store
	seen := map[string]bool{}
	var out [][]term.ID
	scanHom(m, q.Pos, q.Neg, q.NumVars, true, func(sub atom.Subst) bool {
		for _, t := range sub {
			if t == term.None || st.Terms.Kind(t) != term.Const {
				return true
			}
		}
		if key := fmt.Sprint(sub); !seen[key] {
			seen[key] = true
			out = append(out, append([]term.ID(nil), sub...))
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		for k := range out[i] {
			if c := st.Terms.Compare(out[i][k], out[j][k]); c != 0 {
				return c < 0
			}
		}
		return false
	})
	return out
}

// scanViolations is Model.CheckConstraints over scanHom, reduced to what
// must not depend on enumeration order: which clauses are violated, and
// how certainly.
func scanViolations(m *Model) []string {
	var out []string
	prog := m.Chase.Prog
	for _, c := range prog.Constraints {
		for _, strict := range []bool{true, false} {
			if scanHom(m, c.PosBody, c.NegBody, c.NumVars, strict, nil) {
				out = append(out, fmt.Sprintf("constraint %s certain=%v", c.Label, strict))
				break
			}
		}
	}
	for _, e := range prog.EGDs {
		violated := false
		scanHom(m, e.PosBody, nil, e.NumVars, true, func(sub atom.Subst) bool {
			violated = argValue(e.Left, sub) != argValue(e.Right, sub)
			return !violated
		})
		if violated {
			out = append(out, fmt.Sprintf("egd %s certain=true", e.Label))
		}
	}
	return out
}

func violationKeys(vs []Violation) []string {
	var out []string
	for _, v := range vs {
		out = append(out, fmt.Sprintf("%s %s certain=%v", v.Kind, v.Clause, v.Certain))
	}
	return out
}

// randomMatcherSource is randomGuardedSource (arities 1 and 2 over p0…p5,
// constants a, b, c) with a wider random database, so joins have fan-out,
// every other time a drawn win-move cycle, so atoms are undefined, and
// random negative constraints and EGDs over the same predicates.
func randomMatcherSource(rng *rand.Rand) string {
	consts := []string{"a", "b", "c", "d", "e"}
	var b strings.Builder
	for i := rng.Intn(25); i > 0; i-- {
		if p := rng.Intn(4); p%2 == 0 {
			fmt.Fprintf(&b, "p%d(%s).\n", p, consts[rng.Intn(len(consts))])
		} else {
			fmt.Fprintf(&b, "p%d(%s,%s).\n", p, consts[rng.Intn(len(consts))], consts[rng.Intn(len(consts))])
		}
	}
	b.WriteString(randomGuardedSource(rng))
	if rng.Intn(2) == 0 {
		b.WriteString("p1(a,b). p1(b,a). p1(X,Y), not p0(Y) -> p0(X).\n")
	}
	for i := rng.Intn(3); i > 0; i-- {
		if q, ok := randomNBCQ(rng); ok {
			fmt.Fprintf(&b, "%s -> false.\n", q)
		}
	}
	if rng.Intn(2) == 0 {
		p := 1 + 2*rng.Intn(2)
		fmt.Fprintf(&b, "p%d(X,Y), p%d(X,Z) -> Y = Z.\n", p, p)
	}
	return b.String()
}

// randomNBCQ renders a random safe conjunction of one to three positive
// and up to two negative literals over p0…p5: variables repeat within and
// across literals, and constants include one ("zz") no program mentions.
// ok is false when the draw came out unsafe.
func randomNBCQ(rng *rand.Rand) (body string, ok bool) {
	vars := []string{"X", "Y", "Z"}
	consts := []string{"a", "b", "c", "zz"}
	inPos := map[string]bool{}
	literal := func(positive bool) (string, bool) {
		p := rng.Intn(6)
		args := make([]string, 1+p%2)
		for j := range args {
			if rng.Intn(3) == 0 {
				args[j] = consts[rng.Intn(len(consts))]
				continue
			}
			args[j] = vars[rng.Intn(len(vars))]
			if positive {
				inPos[args[j]] = true
			} else if !inPos[args[j]] {
				return "", false
			}
		}
		return fmt.Sprintf("p%d(%s)", p, strings.Join(args, ",")), true
	}
	var lits []string
	for i := 1 + rng.Intn(3); i > 0; i-- {
		l, _ := literal(true)
		lits = append(lits, l)
	}
	for i := rng.Intn(3); i > 0; i-- {
		l, safe := literal(false)
		if !safe {
			return "", false
		}
		lits = append(lits, "not "+l)
	}
	return strings.Join(lits, ", "), true
}

// TestMatcherAgreesWithScanReference is the differential test of the
// indexed matcher: on random models — exact ones and guard-banded ones,
// with undefined atoms and labelled nulls — and random NBCQs, findHom
// enumerates exactly the homomorphisms the reference scan does in both
// modes, and Answer, Select and CheckConstraints agree with their
// reference counterparts (Select byte for byte, order included).
func TestMatcherAgreesWithScanReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2013))
	var banded, threeValued int
	var answers [3]int
	for round := 0; round < 150; round++ {
		src := randomMatcherSource(rng)
		st := atom.NewStore(term.NewStore())
		prog, db, _, err := program.CompileText(src, st)
		if err != nil {
			t.Fatalf("round %d: generated program invalid: %v\n%s", round, err, src)
		}
		m := NewEngine(prog, db, Options{Depth: 5}).Evaluate()
		if m.UsableDepth >= 0 {
			banded++
		}
		if m.GM.CountUndefined() > 0 {
			threeValued++
		}
		if got, want := violationKeys(m.CheckConstraints()), scanViolations(m); !slices.Equal(got, want) {
			t.Fatalf("round %d: violations = %v, reference %v\n%s", round, got, want, src)
		}
		for n := 0; n < 40; n++ {
			body, ok := randomNBCQ(rng)
			if !ok {
				continue
			}
			q, err := program.ParseQuery("? "+body+".", st)
			if err != nil {
				t.Fatalf("round %d: query %q: %v", round, body, err)
			}
			for _, strict := range []bool{true, false} {
				got := homSet(st, func(cb func(atom.Subst) bool) { m.findHom(q.Pos, q.Neg, q.NumVars, strict, nil, cb) })
				want := homSet(st, func(cb func(atom.Subst) bool) { scanHom(m, q.Pos, q.Neg, q.NumVars, strict, cb) })
				if !slices.Equal(got, want) {
					t.Fatalf("round %d: ? %s (strict=%v): homomorphisms %v, reference %v\n%s", round, body, strict, got, want, src)
				}
			}
			want := ground.False
			if scanHom(m, q.Pos, q.Neg, q.NumVars, true, nil) {
				want = ground.True
			} else if scanHom(m, q.Pos, q.Neg, q.NumVars, false, nil) {
				want = ground.Undefined
			}
			if got := m.Answer(q); got != want {
				t.Fatalf("round %d: ? %s = %v, reference %v\n%s", round, body, got, want, src)
			}
			if got := m.Satisfies(q); got != (want == ground.True) {
				t.Fatalf("round %d: Satisfies(? %s) = %v, reference answer %v\n%s", round, body, got, want, src)
			}
			answers[want]++
			if got, want := m.Select(q), scanSelect(m, q); !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d: select ? %s = %v, reference %v\n%s", round, body, got, want, src)
			}
		}
	}
	// The generators must keep reaching the cases the matcher treats
	// differently; a drift that stops producing them would pass vacuously.
	t.Logf("coverage: %d guard-banded, %d three-valued models; answers %v", banded, threeValued, answers)
	if banded < 10 || threeValued < 10 {
		t.Errorf("coverage: %d guard-banded and %d three-valued models of 150", banded, threeValued)
	}
	for tv, n := range answers {
		if n < 20 {
			t.Errorf("coverage: only %d queries answered %v", n, ground.Truth(tv))
		}
	}
}

// TestMatcherGroundLiteralRespectsGuardBand pins the one way the lookup
// path could widen the answer set: a fully bound positive literal finds
// its atom in the store whatever its depth, so it must apply the guard
// band itself, as the candidate lists do.
func TestMatcherGroundLiteralRespectsGuardBand(t *testing.T) {
	prog, db, _, st := compile(t, example4)
	m := NewEngine(prog, db, Options{Depth: 8}).Evaluate()
	if m.UsableDepth < 0 {
		t.Fatal("Example 4 must not saturate")
	}
	q, err := program.ParseQuery("? r(X,Y,Z), r(X,Z,W).", st)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	m.Bindings(q, func(sub atom.Subst) bool {
		for _, p := range q.Pos {
			if a := st.Instantiate(p, sub); !m.Usable(a) {
				t.Errorf("matched %s beyond the guard band", st.String(a))
			}
		}
		checked++
		return true
	})
	// Beyond the band there are true atoms, ground literals over which
	// must not match although a plain Truth lookup says True.
	deep := 0
	for i, g := range m.GP.Atoms {
		if m.GM.Truth[i] != ground.True || m.Usable(g) {
			continue
		}
		deep++
		args := st.Args(g)
		pat := atom.Pattern{Pred: st.PredOf(g), Args: make([]atom.PArg, len(args))}
		for j, a := range args {
			pat.Args[j] = atom.ConstArg(a)
		}
		if m.findHom([]atom.Pattern{pat}, nil, 0, true, nil, nil) {
			t.Errorf("ground literal %s matched beyond the guard band", st.String(g))
		}
	}
	if checked == 0 || deep == 0 {
		t.Errorf("vacuous: %d bindings checked, %d deep true atoms", checked, deep)
	}
}

// TestCheckConstraintsEGDAtScale runs the key-constraint EGD over 10⁴
// facts, which the scan matcher answered by a 10⁸-step nested loop: a
// consistent relation has no violation, and one duplicate key — placed
// last, where a scan finds it latest — is found. With the duplicate first
// the reference is cheap enough to compare against.
func TestCheckConstraintsEGDAtScale(t *testing.T) {
	const n = 10000
	build := func(dupAt int) *Model {
		var b strings.Builder
		b.WriteString("p(X,Y), p(X,Z) -> Y = Z.\n")
		for i := 0; i < n; i++ {
			if i == dupAt {
				fmt.Fprintf(&b, "p(k%d,dup).\n", i)
			}
			fmt.Fprintf(&b, "p(k%d,v%d).\n", i, i)
		}
		prog, db, _, _ := compile(t, b.String())
		return NewEngine(prog, db, Options{}).Evaluate()
	}
	if vs := build(-1).CheckConstraints(); len(vs) != 0 {
		t.Errorf("consistent relation: %v", vs)
	}
	if vs := build(n - 1).CheckConstraints(); len(vs) != 1 || vs[0].Kind != "egd" || !vs[0].Certain {
		t.Errorf("duplicate key last: %v", vs)
	}
	m := build(0)
	if got, want := violationKeys(m.CheckConstraints()), scanViolations(m); len(got) != 1 || !slices.Equal(got, want) {
		t.Errorf("duplicate key first: %v, reference %v", got, want)
	}
}
