package wfs

// An independent oracle for the whole engine. It shares no code with the
// packages under internal/: the chase is a naive saturating loop over
// string atoms, and the well-founded model is the textbook alternating
// fixpoint (van Gelder) over the full grounding, built from maps. It
// covers terminating programs only — guarded normal programs whose guard
// graph is acyclic, which the static analysis certifies — so the oracle
// chase saturates and the engine's model claims exactness.
//
// Labelled nulls follow the engine's Skolem naming, sk<rule>_<var>(u…)
// over the rule's universal variables in order of first appearance, so
// the oracle renders atoms exactly as TrueFacts does and the comparison
// is on every ground atom, nulls included.

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// oPred is a predicate of the random signature: layer 0 is the database,
// and a rule's guard always comes from a layer below its head.
type oPred struct {
	name  string
	arity int
	layer int
}

var oraclePreds = []oPred{
	{"e", 2, 0}, {"f", 1, 0},
	{"a", 1, 1}, {"b", 2, 1},
	{"p", 1, 2}, {"q", 2, 2},
	{"r", 1, 3}, {"s", 2, 3},
}

var oracleConsts = []string{"c0", "c1", "c2", "c3"}

// oAtom is an atom pattern: an argument is a variable name (upper case)
// or a constant.
type oAtom struct {
	pred string
	args []string
}

func (a oAtom) String() string { return a.pred + "(" + strings.Join(a.args, ",") + ")" }

func isVar(s string) bool { return s[0] >= 'A' && s[0] <= 'Z' }

type oRule struct {
	head oAtom
	pos  []oAtom // guard first
	neg  []oAtom
	univ []string // universal variables, in order of first appearance
}

func (r oRule) String() string {
	var body []string
	for _, a := range r.pos {
		body = append(body, a.String())
	}
	for _, a := range r.neg {
		body = append(body, "not "+a.String())
	}
	return strings.Join(body, ", ") + " -> " + r.head.String() + "."
}

// genOracleRule draws one guarded rule whose head lies above its guard.
// Side atoms and negated atoms range over every predicate, so positive
// recursion and negation cycles arise through them.
func genOracleRule(rng *rand.Rand) oRule {
	var heads, guards []oPred
	for _, p := range oraclePreds {
		if p.layer > 0 {
			heads = append(heads, p)
		}
	}
	h := heads[rng.Intn(len(heads))]
	for _, p := range oraclePreds {
		if p.layer < h.layer {
			guards = append(guards, p)
		}
	}
	g := guards[rng.Intn(len(guards))]
	var r oRule
	guard := oAtom{pred: g.name}
	for i := 0; i < g.arity; i++ {
		v := fmt.Sprintf("X%d", i)
		guard.args = append(guard.args, v)
		r.univ = append(r.univ, v)
	}
	r.pos = []oAtom{guard}
	term := func() string {
		if rng.Intn(4) == 0 {
			return oracleConsts[rng.Intn(len(oracleConsts))]
		}
		return r.univ[rng.Intn(len(r.univ))]
	}
	side := func() oAtom {
		p := oraclePreds[rng.Intn(len(oraclePreds))]
		a := oAtom{pred: p.name}
		for i := 0; i < p.arity; i++ {
			a.args = append(a.args, term())
		}
		return a
	}
	if rng.Intn(3) == 0 {
		r.pos = append(r.pos, side())
	}
	for n := rng.Intn(3); n > 0; n-- {
		r.neg = append(r.neg, side())
	}
	r.head = oAtom{pred: h.name}
	exist := h.arity > 1 && rng.Intn(3) == 0
	for i := 0; i < h.arity; i++ {
		if exist && i == h.arity-1 {
			r.head.args = append(r.head.args, "Z")
			continue
		}
		r.head.args = append(r.head.args, r.univ[rng.Intn(len(r.univ))])
	}
	return r
}

// oracleFact renders a random database fact.
func oracleFact(rng *rand.Rand) oAtom {
	var edb []oPred
	for _, p := range oraclePreds {
		if p.layer == 0 {
			edb = append(edb, p)
		}
	}
	p := edb[rng.Intn(len(edb))]
	a := oAtom{pred: p.name}
	for i := 0; i < p.arity; i++ {
		a.args = append(a.args, oracleConsts[rng.Intn(len(oracleConsts))])
	}
	return a
}

// oGround is a ground rule of the oracle's grounding, atoms as strings.
type oGround struct {
	head     string
	pos, neg []string
}

// oracleChase saturates db under rules: a rule fires for every match of
// its guard against a derived atom whose positive side atoms are
// derived; negated atoms only label the instance.
func oracleChase(rules []oRule, db []oAtom) []oGround {
	derived := map[string]bool{}
	byPred := map[string][][]string{}
	var out []oGround
	addAtom := func(pred string, args []string) string {
		k := oAtom{pred, args}.String()
		if !derived[k] {
			derived[k] = true
			byPred[pred] = append(byPred[pred], args)
		}
		return k
	}
	for _, f := range db {
		k := addAtom(f.pred, f.args)
		out = append(out, oGround{head: k})
	}
	fired := map[string]bool{}
	for changed := true; changed; {
		changed = false
		for ri, r := range rules {
			guard := r.pos[0]
			for _, tuple := range slices.Clone(byPred[guard.pred]) {
				bind := map[string]string{}
				ok := true
				for i, t := range guard.args {
					if !isVar(t) {
						ok = ok && t == tuple[i]
					} else if v, seen := bind[t]; seen {
						ok = ok && v == tuple[i]
					} else {
						bind[t] = tuple[i]
					}
				}
				if !ok {
					continue
				}
				key := fmt.Sprint(ri, tuple)
				if fired[key] {
					continue
				}
				inst := func(a oAtom) (string, []string) {
					args := make([]string, len(a.args))
					for i, t := range a.args {
						if !isVar(t) {
							args[i] = t
						} else if v, ok := bind[t]; ok {
							args[i] = v
						} else {
							u := make([]string, len(r.univ))
							for j, x := range r.univ {
								u[j] = bind[x]
							}
							args[i] = fmt.Sprintf("sk%d_%s(%s)", ri, t, strings.Join(u, ","))
						}
					}
					return oAtom{a.pred, args}.String(), args
				}
				g := oGround{}
				for _, p := range r.pos {
					k, _ := inst(p)
					if !derived[k] {
						ok = false
						break
					}
					g.pos = append(g.pos, k)
				}
				if !ok {
					continue
				}
				for _, n := range r.neg {
					k, _ := inst(n)
					g.neg = append(g.neg, k)
				}
				_, hargs := inst(r.head)
				g.head = addAtom(r.head.pred, hargs)
				fired[key] = true
				changed = true
				out = append(out, g)
			}
		}
	}
	return out
}

// oracleWFS is the alternating fixpoint: Γ(I) is the least model of the
// reduct by I, T grows as Γ(Γ(T)) from ∅, and the atoms in Γ(T) but not
// in T are undefined.
func oracleWFS(prog []oGround) (truth map[string]string) {
	gamma := func(in map[string]bool) map[string]bool {
		out := map[string]bool{}
		for changed := true; changed; {
			changed = false
		rules:
			for _, g := range prog {
				if out[g.head] {
					continue
				}
				for _, n := range g.neg {
					if in[n] {
						continue rules
					}
				}
				for _, p := range g.pos {
					if !out[p] {
						continue rules
					}
				}
				out[g.head] = true
				changed = true
			}
		}
		return out
	}
	t := map[string]bool{}
	for {
		next := gamma(gamma(t))
		if len(next) == len(t) {
			break
		}
		t = next
	}
	possible := gamma(t)
	truth = map[string]string{}
	for a := range possible {
		truth[a] = "undefined"
	}
	for a := range t {
		truth[a] = "true"
	}
	return truth
}

// oracleQueries returns single-atom Boolean queries over every predicate:
// fully ground ones and ones with an existential variable.
func oracleQueries(rng *rand.Rand) []oAtom {
	var qs []oAtom
	for _, p := range oraclePreds {
		a := oAtom{pred: p.name}
		for i := 0; i < p.arity; i++ {
			if rng.Intn(2) == 0 {
				a.args = append(a.args, "V")
			} else {
				a.args = append(a.args, oracleConsts[rng.Intn(len(oracleConsts))])
			}
		}
		qs = append(qs, a)
	}
	return qs
}

// oracleAnswer is the truth of a one-atom Boolean query: the best truth
// of any atom it matches.
func oracleAnswer(q oAtom, truth map[string]string) string {
	best := "false"
	for a, tv := range truth {
		open := strings.IndexByte(a, '(')
		if a[:open] != q.pred {
			continue
		}
		args := splitArgs(a[open+1 : len(a)-1])
		if len(args) != len(q.args) {
			continue
		}
		bind := ""
		match := true
		for i, t := range q.args {
			switch {
			case !isVar(t):
				match = match && t == args[i]
			case bind == "":
				bind = args[i]
			default:
				match = match && bind == args[i]
			}
		}
		if !match {
			continue
		}
		if tv == "true" {
			return "true"
		}
		best = tv
	}
	return best
}

// splitArgs splits a rendered argument list at its top-level commas.
func splitArgs(s string) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	return append(out, s[start:])
}

// oracleSource renders db and rules as a program text.
func oracleSource(rules []oRule, db []oAtom) string {
	var b strings.Builder
	for _, f := range db {
		b.WriteString(f.String() + ".\n")
	}
	for _, r := range rules {
		b.WriteString(r.String() + "\n")
	}
	return b.String()
}

// checkOracle compares a system's model with the oracle's on every
// atom, and every Exact answer to qs.
func checkOracle(t *testing.T, what string, sys *System, rules []oRule, db []oAtom, qs []oAtom, certified bool) {
	t.Helper()
	truth := oracleWFS(oracleChase(rules, db))
	var wantTrue, wantUndef []string
	for a, tv := range truth {
		if tv == "true" {
			wantTrue = append(wantTrue, a)
		} else {
			wantUndef = append(wantUndef, a)
		}
	}
	sort.Strings(wantTrue)
	sort.Strings(wantUndef)
	if st := sys.Stats(); !st.Model.Exact && certified {
		t.Fatalf("%s: certified program evaluated inexactly: %+v", what, st.Model)
	} else if st.Model.Exact {
		if got := sys.TrueFacts(); !slices.Equal(got, wantTrue) {
			t.Fatalf("%s: true atoms\n got %v\nwant %v", what, got, wantTrue)
		}
		if got := sys.UndefinedFacts(); !slices.Equal(got, wantUndef) {
			t.Fatalf("%s: undefined atoms\n got %v\nwant %v", what, got, wantUndef)
		}
	}
	for _, q := range qs {
		tv, stats, err := sys.AnswerWithStats("? " + q.String() + ".")
		if err != nil {
			t.Fatalf("%s: ? %s: %v", what, q, err)
		}
		if !stats.Exact {
			continue
		}
		if want := oracleAnswer(q, truth); tv.String() != want {
			t.Fatalf("%s: ? %s = %v, oracle %s", what, q, tv, want)
		}
	}
}

// TestOracleRandomScripts: on random certified guarded normal programs, a
// cold Load and every prefix of a random add/retract script agree with
// the independent oracle on the truth of every ground atom, and every
// answer that claims exactness is the oracle's. The same programs and
// scripts run again loaded with NoCertify, so the answers come off the
// adaptive ladder — cold, deepened and rebased rungs — instead of one
// certified rung; there every exact answer, and the configured-depth
// model when it is exact, must be the oracle's. These programs saturate
// below the default first rung, so a third run walks the ladder from
// depth 1 in steps of 1: its exact answers come from rungs deepened with
// new records, re-solved warm over their cone.
func TestOracleRandomScripts(t *testing.T) {
	for _, v := range []struct {
		name string
		opts Options
	}{
		{"certified", Options{}},
		{"ladder", Options{NoCertify: true}},
		{"ladder-from-1", Options{NoCertify: true, AdaptiveStart: 1, AdaptiveStep: 1}},
	} {
		t.Run(v.name, func(t *testing.T) { oracleScripts(t, v.opts) })
	}
}

func oracleScripts(t *testing.T, opts Options) {
	certified := !opts.NoCertify
	rng := rand.New(rand.NewSource(20240607))
	const programs, steps = 60, 12
	for pi := 0; pi < programs; pi++ {
		var rules []oRule
		for n := 2 + rng.Intn(5); n > 0; n-- {
			rules = append(rules, genOracleRule(rng))
		}
		var db []oAtom
		for n := 3 + rng.Intn(6); n > 0; n-- {
			db = append(db, oracleFact(rng))
		}
		src := oracleSource(rules, db)
		sys, err := LoadWithOptions(src, opts)
		if err != nil {
			t.Fatalf("program %d: %v\n%s", pi, err, src)
		}
		if rep := sys.Analysis(); certified && (rep == nil || rep.Certificate == nil) {
			t.Fatalf("program %d: not certified\n%s", pi, src)
		}
		qs := oracleQueries(rng)
		checkOracle(t, fmt.Sprintf("program %d load\n%s", pi, src), sys, rules, db, qs, certified)
		for step := 0; step < steps; step++ {
			d := NewDelta()
			retracted, added := map[string]bool{}, map[string]bool{}
			for n := 1 + rng.Intn(3); n > 0; n-- {
				if len(db) > 0 && rng.Intn(2) == 0 {
					f := db[rng.Intn(len(db))]
					if !retracted[f.String()] && !added[f.String()] {
						retracted[f.String()] = true
						d.Retract(f.pred, f.args...)
					}
					continue
				}
				if f := oracleFact(rng); !retracted[f.String()] {
					added[f.String()] = true
					d.Add(f.pred, f.args...)
					db = append(db, f)
				}
			}
			db = slices.DeleteFunc(db, func(f oAtom) bool { return retracted[f.String()] })
			if err := sys.Apply(d); err != nil {
				t.Fatalf("program %d step %d: %v\n%s", pi, step, err, src)
			}
			what := fmt.Sprintf("program %d step %d\n%s\ndb %v", pi, step, src, db)
			checkOracle(t, what+" (apply)", sys, rules, db, qs, certified)
			cold, err := LoadWithOptions(oracleSource(rules, db), opts)
			if err != nil {
				t.Fatalf("%s: cold load: %v", what, err)
			}
			checkOracle(t, what+" (cold)", cold, rules, db, qs, certified)
		}
	}
}
