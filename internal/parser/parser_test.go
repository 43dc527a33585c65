package parser

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

func parseOne(t *testing.T, src string) *Unit {
	t.Helper()
	u, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return u
}

func TestParseFact(t *testing.T) {
	u := parseOne(t, "person(john).")
	want := []Fact{{Pred: "person", Args: []string{"john"}, Line: 1}}
	if len(u.Rules) != 0 || !reflect.DeepEqual(u.Facts, want) {
		t.Fatalf("got rules %+v facts %+v, want facts %+v", u.Rules, u.Facts, want)
	}
}

func TestParsePropositionalFact(t *testing.T) {
	u := parseOne(t, "rain.")
	if want := []Fact{{Pred: "rain", Line: 1}}; !reflect.DeepEqual(u.Facts, want) {
		t.Errorf("facts = %+v, want %+v", u.Facts, want)
	}
}

// TestParseFactsInterleaved: every ground fact, fast path or not, lands
// in Unit.Facts with its line and the number of rules before it; a fact
// with a variable stays a rule for the compiler to reject.
func TestParseFactsInterleaved(t *testing.T) {
	u := parseOne(t, "a(x).\np(X) -> q(X).\nb( y ,\n 1_0 ) .\nr(X).\nc% comment\n.\nd(\"é\").")
	want := []Fact{
		{Pred: "a", Args: []string{"x"}, Line: 1, Before: 0},
		{Pred: "b", Args: []string{"y", "1_0"}, Line: 3, Before: 1},
		{Pred: "c", Line: 6, Before: 2},
		{Pred: "d", Args: []string{"é"}, Line: 8, Before: 2},
	}
	if !reflect.DeepEqual(u.Facts, want) {
		t.Errorf("facts = %+v, want %+v", u.Facts, want)
	}
	if len(u.Rules) != 2 || u.Rules[1].Line != 5 || !u.Rules[1].IsFact() {
		t.Errorf("rules = %+v, want the TGD and the non-ground fact r(X) on line 5", u.Rules)
	}
	if got, want := Format(u), "a(x).\np(X) -> q(X).\nb(y, 1_0).\nr(X).\nc.\nd(é).\n"; got != want {
		t.Errorf("Format = %q, want %q", got, want)
	}
}

func TestParseRuleWithNegation(t *testing.T) {
	u := parseOne(t, "r(X,Y,Z), p(X,Y), not q(Z) -> p(X,Z).")
	r := u.Rules[0]
	if len(r.Body) != 3 || len(r.Head) != 1 {
		t.Fatalf("rule shape wrong: %+v", r)
	}
	if r.Body[2].Atom.Pred != "q" || !r.Body[2].Negated {
		t.Errorf("negated literal wrong: %+v", r.Body[2])
	}
	if !r.Body[0].Atom.Args[0].IsVar {
		t.Errorf("variable not recognized")
	}
}

func TestParseMultiHead(t *testing.T) {
	u := parseOne(t, "person(X) -> hasID(X, Y), idOf(Y, X).")
	if len(u.Rules[0].Head) != 2 {
		t.Errorf("multi-atom head not parsed: %+v", u.Rules[0].Head)
	}
}

func TestParseConstraint(t *testing.T) {
	u := parseOne(t, "emp(X), seeker(X) -> false.")
	if u.Rules[0].Kind != KindConstraint {
		t.Errorf("constraint kind = %v", u.Rules[0].Kind)
	}
}

func TestParseEGD(t *testing.T) {
	u := parseOne(t, "id(X,Y), id(X,Z) -> Y = Z.")
	r := u.Rules[0]
	if r.Kind != KindEGD || !r.EqLeft.IsVar || r.EqLeft.Name != "Y" || r.EqRight.Name != "Z" {
		t.Errorf("EGD parsed wrong: %+v", r)
	}
}

func TestParseQuery(t *testing.T) {
	u := parseOne(t, "? isAuthorOf(john, X), not retracted(X).")
	if len(u.Queries) != 1 {
		t.Fatalf("expected one query")
	}
	q := u.Queries[0]
	if len(q.Literals) != 2 || !q.Literals[1].Negated {
		t.Errorf("query literals wrong: %+v", q.Literals)
	}
}

func TestParseQueryString(t *testing.T) {
	for _, src := range []string{"p(X)", "p(X).", "? p(X).", "?p(X)"} {
		q, err := ParseQueryString(src)
		if err != nil {
			t.Errorf("ParseQueryString(%q): %v", src, err)
			continue
		}
		if len(q.Literals) != 1 || q.Literals[0].Atom.Pred != "p" {
			t.Errorf("ParseQueryString(%q) literals wrong", src)
		}
	}
}

// TestParseQueryStringRejectsFacts: a fact after the query makes the
// text more than one query.
func TestParseQueryStringRejectsFacts(t *testing.T) {
	for _, src := range []string{"p(X). q(a).", "? p(X). q.", "p(X). q(Y)."} {
		if _, err := ParseQueryString(src); err == nil {
			t.Errorf("ParseQueryString(%q) accepted", src)
		}
	}
}

func TestParseComments(t *testing.T) {
	u := parseOne(t, `
% a percent comment
p(a). # a hash comment
# full-line comment
q(b).
`)
	want := []Fact{{Pred: "p", Args: []string{"a"}, Line: 3}, {Pred: "q", Args: []string{"b"}, Line: 5}}
	if !reflect.DeepEqual(u.Facts, want) {
		t.Errorf("comments broke parsing: facts %+v, want %+v", u.Facts, want)
	}
}

func TestParseNumbersAndStrings(t *testing.T) {
	u := parseOne(t, `p(0, 42, "Hello World", x_1).`)
	want := []string{"0", "42", "Hello World", "x_1"}
	if len(u.Facts) != 1 || !reflect.DeepEqual(u.Facts[0].Args, want) {
		t.Errorf("facts = %+v, want one with args %q", u.Facts, want)
	}
}

func TestVariableSpelling(t *testing.T) {
	u := parseOne(t, "p(X, Xyz, _under, lower) -> q(X).")
	args := u.Rules[0].Body[0].Atom.Args
	wantVar := []bool{true, true, true, false}
	for i, w := range wantVar {
		if args[i].IsVar != w {
			t.Errorf("arg %d IsVar = %v, want %v", i, args[i].IsVar, w)
		}
	}
}

func TestSyntaxErrors(t *testing.T) {
	cases := []struct {
		src     string
		wantMsg string
	}{
		{"p(a)", "expected"},                // missing period
		{"p(a,).", "expected a term"},       // trailing comma
		{"p().", "empty argument list"},     // explicit empty args
		{"-> q(a).", "expected predicate"},  // empty body with arrow
		{"p(a) -> X.", "rule head"},         // head variable
		{`p("unterminated`, "unterminated"}, // bad string
		{"p(a) q(b).", "expected"},          // missing connective
		{"not p(a).", "negated literal"},    // bare negated fact
		{"p(a), q(a).", "single atom"},      // conjunction as statement
		{"p(a) - q(a).", "expected '->'"},   // bad arrow
		{"p(a) -> q(a)", "expected"},        // missing final period
		{"&", "unexpected character"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error containing %q", c.src, c.wantMsg)
			continue
		}
		var se *SyntaxError
		if !errors.As(err, &se) {
			t.Errorf("Parse(%q) error is not a *SyntaxError: %v", c.src, err)
		}
		if !strings.Contains(err.Error(), c.wantMsg) {
			t.Errorf("Parse(%q) error %q does not mention %q", c.src, err, c.wantMsg)
		}
	}
}

func TestErrorPositions(t *testing.T) {
	_, err := Parse("p(a).\nq(b)\nr(c).")
	var se *SyntaxError
	if !errors.As(err, &se) {
		t.Fatalf("expected syntax error, got %v", err)
	}
	if se.Line != 3 {
		t.Errorf("error line = %d, want 3 (error discovered at 'r')", se.Line)
	}
}

// TestRoundTrip: parse → print → parse is a fixpoint (prints are stable and
// reparseable).
func TestRoundTrip(t *testing.T) {
	src := `
article(a1).
conferencePaper(X) -> article(X).
scientist(X) -> isAuthorOf(X, Y).
r(X,Y,Z), p(X,Y), not q(Z) -> p(X,Z).
emp(X), seeker(X) -> false.
id(X,Y), id(X,Z) -> Y = Z.
person(X) -> hasID(X, Y), idOf(Y, X).
p("Weird Constant", 42).
? isAuthorOf(john, X), not retracted(X).
`
	u1 := parseOne(t, src)
	printed := Format(u1)
	u2, err := Parse(printed)
	if err != nil {
		t.Fatalf("reparse of %q: %v", printed, err)
	}
	printed2 := Format(u2)
	if printed != printed2 {
		t.Errorf("print-parse-print not stable:\n%s\nvs\n%s", printed, printed2)
	}
}

func TestFormatQuoting(t *testing.T) {
	for _, tc := range []struct{ name, want string }{
		{"john", "john"},
		{"Hello World", `"Hello World"`},
		{"42", "42"},
		{"4x", `"4x"`},
		{"not", `"not"`},
		{"false", `"false"`},
		{"Upper", `"Upper"`},
		{"", `""`},
	} {
		if got := FormatTerm(Term{Name: tc.name}); got != tc.want {
			t.Errorf("FormatTerm(%q) = %s, want %s", tc.name, got, tc.want)
		}
	}
}
