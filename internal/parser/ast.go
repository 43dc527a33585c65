// Package parser implements the surface syntax of guarded normal Datalog±
// programs, databases, and normal Boolean conjunctive queries (NBCQs).
//
// Syntax summary (one clause per statement, '.' terminated):
//
//	% line comment          # also a line comment
//	person(john).                          — fact
//	conferencePaper(X) -> article(X).      — TGD
//	scientist(X) -> isAuthorOf(X, Y).      — Y not in the body: existential
//	r(X,Y,Z), p(X,Y), not q(Z) -> p(X,Z).  — normal TGD (default negation)
//	emp(X), unemp(X) -> false.             — negative constraint (extension)
//	id(X,Y), id(X,Z) -> Y = Z.             — EGD (extension)
//	? isAuthorOf(john, X), not retracted(X).  — NBCQ
//
// Identifiers starting with an upper-case letter or '_' are variables;
// identifiers starting with a lower-case letter, numbers, and double-quoted
// strings are constants. Multi-atom heads are permitted and normalized by
// the program compiler.
package parser

import "fmt"

// Term is a parsed term: a constant or a variable.
type Term struct {
	Name  string
	IsVar bool
}

// Atom is a parsed atom. Zero-argument atoms are propositions.
type Atom struct {
	Pred string
	Args []Term
	Line int
	Col  int
}

// Literal is an atom, a default-negated atom, or (in queries only, §2.1)
// an equality between a variable and a term.
type Literal struct {
	Atom    Atom
	Negated bool
	// IsEq marks an equality literal EqLeft = EqRight; Atom is unused.
	// Equalities cannot be negated (CQs may contain equalities but no
	// inequalities, §2.1).
	IsEq            bool
	EqLeft, EqRight Term
}

// RuleKind distinguishes ordinary TGDs from the constraint extensions.
type RuleKind int

const (
	// KindTGD is a (normal) tuple-generating dependency; a TGD with an
	// empty body is a fact.
	KindTGD RuleKind = iota
	// KindConstraint is a negative constraint: body -> false.
	KindConstraint
	// KindEGD is an equality-generating dependency: body -> X = Y.
	KindEGD
)

// Rule is a parsed clause: a normal TGD, a negative constraint, an EGD,
// or a fact with a variable (which the compiler rejects). Ground facts
// are Facts, not Rules.
type Rule struct {
	Kind RuleKind
	Body []Literal
	Head []Atom // KindTGD: one or more atoms; empty for other kinds
	// EGD equality head (KindEGD only).
	EqLeft, EqRight Term
	Line            int
}

// IsFact reports whether the rule is a fact (TGD with empty body); in a
// parsed Unit such a rule has a variable.
func (r *Rule) IsFact() bool { return r.Kind == KindTGD && len(r.Body) == 0 }

// Query is a parsed NBCQ.
type Query struct {
	Literals []Literal
	Line     int
}

// Fact is a ground atom of the database: Pred applied to the constants
// Args (nil for a proposition). Before is the number of rules that
// precede the fact in the source, so a compiler can interleave facts and
// rules in source order.
type Fact struct {
	Pred   string
	Args   []string
	Line   int
	Before int
}

// Unit is a parsed source unit: rules, ground facts, and queries, each in
// source order.
type Unit struct {
	Rules   []*Rule
	Facts   []Fact
	Queries []*Query
}

// Walk visits the unit's rules and facts in source order, stopping at
// the first error; the queries are not visited.
func (u *Unit) Walk(rule func(*Rule) error, fact func(Fact) error) error {
	facts := u.Facts
	for i := 0; ; i++ {
		for ; len(facts) > 0 && facts[0].Before <= i; facts = facts[1:] {
			if err := fact(facts[0]); err != nil {
				return err
			}
		}
		if i == len(u.Rules) {
			return nil
		}
		if err := rule(u.Rules[i]); err != nil {
			return err
		}
	}
}

// SyntaxError reports a lexical or syntactic error with position info.
type SyntaxError struct {
	Line, Col int
	Msg       string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("parse error at %d:%d: %s", e.Line, e.Col, e.Msg)
}
