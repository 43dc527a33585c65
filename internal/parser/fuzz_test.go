package parser

import (
	"reflect"
	"testing"
)

// FuzzParse checks the parser never panics, that the fact fast path and
// the general path agree — the same Unit or the same *SyntaxError — and
// that accepted inputs round-trip stably through the printer.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"p(a).",
		"p(X) -> q(X, Y).",
		"r(X,Y,Z), p(X,Y), not q(Z) -> p(X,Z).",
		"emp(X), seeker(X) -> false.",
		"id(X,Y), id(X,Z) -> Y = Z.",
		"? p(X), not q(X), X = a.",
		`p("string const", 42, _Under).`,
		"% comment\np(a). # more",
		"?? broken",
		"p(a) -> q(a), r(a).",
		"not p(a).",
		"p(",
		"p(a)..",
		"?",
		"-> q.",
		"p(a,).",
		"p(a) .",
		`p( "x" , 1_0 ).`,
		"not(a).",
		"false.",
		"p(a)% c\n.",
		"p(é).",
		"P(a).",
		"p(a), q(b).",
		"p(a) -> q(a).",
		"p(not).",
		"p(false).",
		"p(\n a ). q(",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		u, err := parse(src, true)
		slow, slowErr := parse(src, false)
		if !reflect.DeepEqual(err, slowErr) || !reflect.DeepEqual(u, slow) {
			t.Fatalf("fast path diverges on %q:\nfast %+v, %v\nslow %+v, %v", src, u, err, slow, slowErr)
		}
		if err != nil {
			return // rejected inputs just need to not panic
		}
		printed := Format(u)
		u2, err := Parse(printed)
		if err != nil {
			t.Fatalf("printer emitted unparseable output %q for input %q: %v", printed, src, err)
		}
		if Format(u2) != printed {
			t.Fatalf("print-parse-print unstable for %q", src)
		}
	})
}

// FuzzParseQueryString covers the query-sugar entry point.
func FuzzParseQueryString(f *testing.F) {
	for _, seed := range []string{"p(X)", "? p(X).", "p(X), not q(X)", "X = Y, p(X, Y)"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := ParseQueryString(src)
		if err != nil {
			return
		}
		if len(q.Literals) == 0 {
			t.Fatalf("accepted query with no literals: %q", src)
		}
	})
}
