package parser

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// FormatTerm renders a parsed term. Constants whose spelling would not
// re-lex as a constant (e.g. names starting with an upper-case letter)
// are quoted.
func FormatTerm(t Term) string {
	if t.IsVar {
		return t.Name
	}
	if needsQuotes(t.Name) {
		return `"` + t.Name + `"`
	}
	return t.Name
}

func needsQuotes(name string) bool {
	if name == "" || name == "not" || name == "false" {
		return true
	}
	first, _ := utf8.DecodeRuneInString(name)
	if unicode.IsDigit(first) {
		for _, r := range name {
			if !unicode.IsDigit(r) && r != '_' {
				return true
			}
		}
		return false
	}
	if !unicode.IsLower(first) {
		return true
	}
	for _, r := range name {
		if !isIdentPart(r) {
			return true
		}
	}
	return false
}

// FormatAtom renders a parsed atom.
func FormatAtom(a Atom) string {
	if len(a.Args) == 0 {
		return a.Pred
	}
	var b strings.Builder
	b.WriteString(a.Pred)
	b.WriteByte('(')
	for i, t := range a.Args {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(FormatTerm(t))
	}
	b.WriteByte(')')
	return b.String()
}

// FormatLiteral renders a parsed literal.
func FormatLiteral(l Literal) string {
	if l.IsEq {
		return FormatTerm(l.EqLeft) + " = " + FormatTerm(l.EqRight)
	}
	if l.Negated {
		return "not " + FormatAtom(l.Atom)
	}
	return FormatAtom(l.Atom)
}

// FormatRule renders a parsed rule in the surface syntax, including the
// terminating period.
func FormatRule(r *Rule) string {
	var b strings.Builder
	for i, l := range r.Body {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(FormatLiteral(l))
	}
	switch r.Kind {
	case KindTGD:
		if len(r.Body) > 0 {
			b.WriteString(" -> ")
		}
		for i, a := range r.Head {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(FormatAtom(a))
		}
	case KindConstraint:
		b.WriteString(" -> false")
	case KindEGD:
		b.WriteString(" -> ")
		b.WriteString(FormatTerm(r.EqLeft))
		b.WriteString(" = ")
		b.WriteString(FormatTerm(r.EqRight))
	}
	b.WriteByte('.')
	return b.String()
}

// FormatQuery renders a parsed query, including the leading '?' and the
// terminating period.
func FormatQuery(q *Query) string {
	var b strings.Builder
	b.WriteString("? ")
	for i, l := range q.Literals {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(FormatLiteral(l))
	}
	b.WriteByte('.')
	return b.String()
}

// FormatFact renders a database fact, including the terminating period.
func FormatFact(f Fact) string {
	a := Atom{Pred: f.Pred, Args: make([]Term, len(f.Args))}
	for i, c := range f.Args {
		a.Args[i] = Term{Name: c}
	}
	return FormatAtom(a) + "."
}

// Format renders a full unit, one statement per line: rules and facts in
// their source order, then the queries.
func Format(u *Unit) string {
	var b strings.Builder
	line := func(s string) {
		b.WriteString(s)
		b.WriteByte('\n')
	}
	_ = u.Walk(func(r *Rule) error { line(FormatRule(r)); return nil }, // the visitors never fail
		func(f Fact) error { line(FormatFact(f)); return nil })
	for _, q := range u.Queries {
		line(FormatQuery(q))
	}
	return b.String()
}
