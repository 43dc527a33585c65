package wfs

import (
	"strings"
	"testing"

	"repro/internal/trace"
)

func TestLoadAndAnswer(t *testing.T) {
	sys, err := Load(`
		scientist(john).
		scientist(X) -> isAuthorOf(X, Y).
		conferencePaper(X) -> article(X).
		conferencePaper(pods13).
	`)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		q    string
		want Truth
	}{
		{"? isAuthorOf(john, X).", True},
		{"? article(pods13).", True},
		{"? article(john).", False},
		{"isAuthorOf(john, X)", True}, // sugar: no ? and no period
	} {
		got, err := sys.Answer(tc.q)
		if err != nil {
			t.Fatalf("Answer(%q): %v", tc.q, err)
		}
		if got != tc.want {
			t.Errorf("Answer(%q) = %v, want %v", tc.q, got, tc.want)
		}
	}
}

func TestLoadError(t *testing.T) {
	if _, err := Load("p(X) ->"); err == nil {
		t.Errorf("syntax error not reported")
	}
	if _, err := Load("e(X,Y), t(Y,Z) -> t(X,Z)."); err == nil {
		t.Errorf("guardedness violation not reported")
	}
}

// TestLoadTracedPhases: a traced load records parse, compile (with the
// number of facts) and analyze as siblings.
func TestLoadTracedPhases(t *testing.T) {
	root := trace.New("load")
	if _, err := LoadWithOptionsTraced("p(a). p(X) -> q(X). p(b). r.", Options{}, root); err != nil {
		t.Fatal(err)
	}
	tr := root.Trace()
	var names []string
	for _, c := range tr.Children {
		names = append(names, c.Name)
	}
	if got := strings.Join(names, " "); got != "parse compile analyze" {
		t.Errorf("phases %q, want \"parse compile analyze\"", got)
	}
	if n := tr.Find("compile").Counters["facts"]; n != 3 {
		t.Errorf("compile facts=%d, want 3", n)
	}
}

func TestAddFact(t *testing.T) {
	sys, err := Load(`person(X) -> hasID(X, Y).`)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := sys.Answer("? hasID(ann, X)."); got != False {
		t.Fatalf("empty database answered %v", got)
	}
	if err := sys.AddFact("person", "ann"); err != nil {
		t.Fatal(err)
	}
	if got, _ := sys.Answer("? hasID(ann, X)."); got != True {
		t.Errorf("fact addition not picked up: %v", got)
	}
}

func TestEmbeddedQueries(t *testing.T) {
	sys, err := Load(`
		p(a).
		p(X), not q(X) -> r(X).
		? r(a).
		? q(a).
	`)
	if err != nil {
		t.Fatal(err)
	}
	rs := sys.AnswerAll()
	if len(rs) != 2 || rs[0].Answer != True || rs[1].Answer != False {
		t.Errorf("AnswerAll = %+v", rs)
	}
}

func TestTruthOf(t *testing.T) {
	sys, err := Load(`
		move(a,b). move(b,a).
		move(X,Y), not win(Y) -> win(X).
	`)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sys.TruthOf("win(a)")
	if err != nil {
		t.Fatal(err)
	}
	if got != Undefined {
		t.Errorf("win(a) = %v, want undefined", got)
	}
	if _, err := sys.TruthOf("win(X)"); err == nil {
		t.Errorf("non-ground TruthOf accepted")
	}
	if _, err := sys.TruthOf("win(a), win(b)"); err == nil {
		t.Errorf("conjunction TruthOf accepted")
	}
}

func TestTrueAndUndefinedFacts(t *testing.T) {
	sys, err := Load(`
		p(a).
		move(c,d). move(d,c).
		move(X,Y), not win(Y) -> win(X).
	`)
	if err != nil {
		t.Fatal(err)
	}
	tf := strings.Join(sys.TrueFacts(), ";")
	if !strings.Contains(tf, "p(a)") || !strings.Contains(tf, "move(c,d)") {
		t.Errorf("TrueFacts = %s", tf)
	}
	uf := strings.Join(sys.UndefinedFacts(), ";")
	if !strings.Contains(uf, "win(c)") || !strings.Contains(uf, "win(d)") {
		t.Errorf("UndefinedFacts = %s", uf)
	}
}

func TestWCheckFacade(t *testing.T) {
	sys, err := Load(`
		move(a,b).
		move(X,Y), not win(Y) -> win(X).
	`)
	if err != nil {
		t.Fatal(err)
	}
	tv, stats, err := sys.WCheck("win(a)")
	if err != nil {
		t.Fatal(err)
	}
	if tv != True || stats.ClosureAtoms == 0 {
		t.Errorf("WCheck = %v (%+v)", tv, stats)
	}
}

func TestConstraintsFacade(t *testing.T) {
	sys, err := Load(`
		cat(rex). dog(rex).
		cat(X), dog(X) -> false.
	`)
	if err != nil {
		t.Fatal(err)
	}
	if vs := sys.CheckConstraints(); len(vs) != 1 || !vs[0].Certain {
		t.Errorf("violations = %+v", vs)
	}
}

func TestStratifiedFacade(t *testing.T) {
	sys, _ := Load("p(a).\np(X), not q(X) -> r(X).")
	if !sys.Stratified() {
		t.Errorf("stratified program misreported")
	}
	sys2, _ := Load("move(a,b).\nmove(X,Y), not win(Y) -> win(X).")
	if sys2.Stratified() {
		t.Errorf("win-move reported stratified")
	}
}

func TestDeltaBoundFacade(t *testing.T) {
	sys, _ := Load("p(a,b,c).")
	if sys.DeltaBound().Sign() <= 0 {
		t.Errorf("DeltaBound not positive")
	}
}

func TestAnswerWithStats(t *testing.T) {
	sys, err := Load(`
		r(0,0,1). p(0,0).
		r(X,Y,Z) -> r(X,Z,W).
		r(X,Y,Z), p(X,Y), not q(Z) -> p(X,Z).
		r(X,Y,Z), not p(X,Y) -> q(Z).
		r(X,Y,Z), not p(X,Z) -> s(X).
		p(X,Y), not s(X) -> t(X).
	`)
	if err != nil {
		t.Fatal(err)
	}
	ans, stats, err := sys.AnswerWithStats("? t(0).")
	if err != nil {
		t.Fatal(err)
	}
	if ans != True {
		t.Errorf("t(0) = %v, want true", ans)
	}
	if len(stats.Depths) == 0 || !stats.Stable {
		t.Errorf("stats = %+v", stats)
	}
}

func TestSelectFacade(t *testing.T) {
	sys, err := Load(`
		person(ann). person(bob). employed(ann).
		person(X), not employed(X) -> seeker(X).
	`)
	if err != nil {
		t.Fatal(err)
	}
	vars, rows, err := sys.Select("? seeker(X).")
	if err != nil {
		t.Fatal(err)
	}
	if len(vars) != 1 || vars[0] != "X" {
		t.Errorf("vars = %v", vars)
	}
	if len(rows) != 1 || rows[0][0] != "bob" {
		t.Errorf("rows = %v, want [[bob]]", rows)
	}
}

func TestExplainAtomFacade(t *testing.T) {
	sys, err := Load(`
		a(x).
		a(X), not blocked(X) -> b(X).
	`)
	if err != nil {
		t.Fatal(err)
	}
	out, ok, err := sys.ExplainAtom("b(x)")
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("no proof of b(x)")
	}
	if !strings.Contains(out, "a(x)") || !strings.Contains(out, "not blocked(x)") {
		t.Errorf("proof rendering wrong:\n%s", out)
	}
	if _, ok, err := sys.ExplainAtom("blocked(x)"); err != nil || ok {
		t.Errorf("false atom explained as true (ok=%v err=%v)", ok, err)
	}
	// Malformed input surfaces as an error, not as a silent "not true".
	if _, ok, err := sys.ExplainAtom("b("); err == nil {
		t.Errorf("malformed atom: got ok=%v with nil error, want error", ok)
	}
	// A non-ground or multi-literal input is likewise an error.
	if _, _, err := sys.ExplainAtom("b(X)"); err == nil {
		t.Errorf("non-ground atom accepted by ExplainAtom")
	}
}

func TestLoadCSV(t *testing.T) {
	sys, err := Load(`
		move(X,Y), not win(Y) -> win(X).
	`)
	if err != nil {
		t.Fatal(err)
	}
	n, err := sys.LoadCSV("move", strings.NewReader("a,b\nb,c\n"))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("loaded %d facts, want 2", n)
	}
	if got, _ := sys.TruthOf("win(b)"); got != True {
		t.Errorf("win(b) = %v after CSV load", got)
	}
	// Ragged record.
	if _, err := sys.LoadCSV("move", strings.NewReader("a,b\nc\n")); err == nil {
		t.Errorf("ragged CSV accepted")
	}
	// Arity conflict with the schema.
	if _, err := sys.LoadCSV("win", strings.NewReader("a,b\n")); err == nil {
		t.Errorf("arity-conflicting CSV accepted")
	}
}
