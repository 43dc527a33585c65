package parser

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

type parser struct {
	lex  *lexer
	tok  token // lookahead
	unit *Unit
	args []string // arena the facts' Args are sub-sliced from
}

// Parse parses a source unit: any mixture of facts, rules, constraints,
// EGDs, and queries.
func Parse(src string) (*Unit, error) { return parse(src, true) }

// parse is Parse with the fact fast path (scanFact) on or off; the two
// settings yield the same Unit or the same *SyntaxError, which the fuzz
// test checks.
func parse(src string, fast bool) (*Unit, error) {
	p := &parser{lex: newLexer(src), unit: &Unit{}}
	if err := p.bump(); err != nil {
		return nil, err
	}
	for p.tok.kind != tokEOF {
		if p.tok.kind == tokQuestion {
			q, err := p.parseQuery()
			if err != nil {
				return nil, err
			}
			p.unit.Queries = append(p.unit.Queries, q)
			continue
		}
		if fast && p.tok.kind == tokIdent {
			if end, ok := p.scanFact(); ok {
				if err := p.skipTo(end); err != nil {
					return nil, err
				}
				continue
			}
		}
		r, err := p.parseRule()
		if err != nil {
			return nil, err
		}
		if a, ok := groundFact(r); ok {
			start := len(p.args)
			for _, t := range a.Args {
				p.args = append(p.args, t.Name)
			}
			p.addFact(a.Pred, start, r.Line)
			continue
		}
		p.unit.Rules = append(p.unit.Rules, r)
	}
	if len(p.unit.Facts) == 0 {
		p.unit.Facts = nil // reserve may have sized it for facts that never came
	}
	return p.unit, nil
}

// reserve sizes the fact table and the argument arena before the first
// fast-path fact, so bulk data does not regrow them: periods bound the
// facts, commas and open parentheses their arguments. The caps keep text
// that is mostly punctuation from reserving more than a few bytes per
// source byte.
func (p *parser) reserve() {
	src := p.lex.src
	p.unit.Facts = make([]Fact, 0, min(strings.Count(src, "."), len(src)/16))
	p.args = make([]string, 0, min(strings.Count(src, ",")+strings.Count(src, "("), len(src)/8))
}

// groundFact returns the head of a body-less rule without variables.
func groundFact(r *Rule) (Atom, bool) {
	if !r.IsFact() {
		return Atom{}, false
	}
	a := r.Head[0]
	for _, t := range a.Args {
		if t.IsVar {
			return Atom{}, false
		}
	}
	return a, true
}

// addFact records the fact pred(p.args[start:]...) found on line.
func (p *parser) addFact(pred string, start, line int) {
	var args []string
	if len(p.args) > start {
		args = p.args[start:len(p.args):len(p.args)]
	}
	p.unit.Facts = append(p.unit.Facts, Fact{Pred: pred, Args: args, Line: line, Before: len(p.unit.Rules)})
}

// scanFact reads a ground fact — pred(c1, …, cn). or pred. — straight
// from the source bytes at the lookahead identifier, without tokens or
// an AST. Constants are lower-case identifiers, numbers and strings, and
// only ASCII whitespace may separate the parts. Anything else — a
// variable, a comment, a non-ASCII byte, a second atom, an arrow,
// malformed input — makes it report false with nothing consumed, and the
// general path parses the statement. On success it returns the offset
// just past the period.
func (p *parser) scanFact() (end int, ok bool) {
	if p.args == nil {
		p.reserve()
	}
	start := len(p.args)
	src := p.lex.src
	i := scanIdent(src, p.tok.off)
	pred := src[p.tok.off:i]
	if i = skipASCIISpace(src, i); i < len(src) && src[i] == '(' {
		i = p.scanArgs(src, i+1)
	}
	if i < 0 || i >= len(src) || src[i] != '.' {
		p.args = p.args[:start]
		return 0, false
	}
	p.addFact(pred, start, p.tok.line)
	return i + 1, true
}

// scanArgs appends to the arena the constants of the argument list that
// continues at i, just past its '(', and returns the offset after the ')'
// and any whitespace, or -1 if the list is not constants separated by
// commas.
func (p *parser) scanArgs(src string, i int) int {
	for {
		c, j := scanConst(src, skipASCIISpace(src, i))
		if j < 0 {
			return -1
		}
		p.args = append(p.args, c)
		switch i = skipASCIISpace(src, j); {
		case i < len(src) && src[i] == ',':
			i++
		case i < len(src) && src[i] == ')':
			return skipASCIISpace(src, i+1)
		default:
			return -1
		}
	}
}

// skipTo moves the lexer to offset end of a statement scanned by
// scanFact, which holds only ASCII, so every byte is one column, and
// reads the next lookahead.
func (p *parser) skipTo(end int) error {
	l := p.lex
	line, col := p.tok.line, p.tok.col
	for i := p.tok.off; i < end; i++ {
		if l.src[i] == '\n' {
			line, col = line+1, 1
		} else {
			col++
		}
	}
	l.pos, l.line, l.col = end, line, col
	return p.bump()
}

// scanIdent returns the end of the ASCII identifier characters at i.
func scanIdent(src string, i int) int {
	for i < len(src) && isASCIIIdentPart(src[i]) {
		i++
	}
	return i
}

// scanConst scans the constant a fact argument at i must be: a lower-case
// identifier other than not and false, a number, or a string without
// non-ASCII bytes. It returns the constant's name and its end, or -1.
func scanConst(src string, i int) (string, int) {
	if i >= len(src) {
		return "", -1
	}
	switch c := src[i]; {
	case 'a' <= c && c <= 'z':
		j := scanIdent(src, i)
		if name := src[i:j]; name != "not" && name != "false" {
			return name, j
		}
	case isASCIIDigit(c):
		j := i + 1
		for j < len(src) && (isASCIIDigit(src[j]) || src[j] == '_') {
			j++
		}
		return src[i:j], j
	case c == '"':
		for j := i + 1; j < len(src) && src[j] != '\n' && src[j] < utf8.RuneSelf; j++ {
			if src[j] == '"' {
				return src[i+1 : j], j + 1
			}
		}
	}
	return "", -1
}

// skipASCIISpace returns the offset of the first byte at or after i that
// is not ASCII whitespace.
func skipASCIISpace(src string, i int) int {
	for i < len(src) {
		switch src[i] {
		case ' ', '\t', '\n', '\v', '\f', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// ParseQueryString parses a single NBCQ given with or without the leading
// '?' and optional trailing '.'.
func ParseQueryString(src string) (*Query, error) {
	s := strings.TrimSpace(src)
	if !strings.HasPrefix(s, "?") {
		s = "? " + s
	}
	if !strings.HasSuffix(s, ".") {
		s += "."
	}
	unit, err := Parse(s)
	if err != nil {
		return nil, err
	}
	if len(unit.Queries) != 1 || len(unit.Rules) != 0 || len(unit.Facts) != 0 {
		return nil, &SyntaxError{Line: 1, Col: 1, Msg: "expected exactly one query"}
	}
	return unit.Queries[0], nil
}

func (p *parser) bump() error {
	tok, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = tok
	return nil
}

func (p *parser) expect(kind tokKind) (token, error) {
	if p.tok.kind != kind {
		return token{}, p.errHere("expected %s, found %s", kind, p.describe())
	}
	t := p.tok
	if err := p.bump(); err != nil {
		return token{}, err
	}
	return t, nil
}

func (p *parser) describe() string {
	if p.tok.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%s %q", p.tok.kind, p.tok.text)
}

func (p *parser) errHere(format string, args ...any) *SyntaxError {
	return &SyntaxError{Line: p.tok.line, Col: p.tok.col, Msg: fmt.Sprintf(format, args...)}
}

// parseRule parses: literals [ '->' head ] '.'
// where head is 'false', an equality, or a conjunction of atoms.
func (p *parser) parseRule() (*Rule, error) {
	line := p.tok.line
	lits, err := p.parseLiterals()
	if err != nil {
		return nil, err
	}
	if p.tok.kind == tokPeriod {
		// A fact (or conjunction of facts, which we reject for clarity).
		if err := p.bump(); err != nil {
			return nil, err
		}
		for _, l := range lits {
			if l.Negated {
				return nil, &SyntaxError{Line: line, Col: 1, Msg: "negated literal outside a rule body"}
			}
		}
		atoms := make([]Atom, len(lits))
		for i, l := range lits {
			atoms[i] = l.Atom
		}
		if len(atoms) != 1 {
			return nil, &SyntaxError{Line: line, Col: 1, Msg: "a fact must be a single atom (one per statement)"}
		}
		return &Rule{Kind: KindTGD, Head: atoms, Line: line}, nil
	}
	if _, err := p.expect(tokArrow); err != nil {
		return nil, err
	}
	r := &Rule{Body: lits, Line: line}
	switch p.tok.kind {
	case tokFalse:
		if err := p.bump(); err != nil {
			return nil, err
		}
		r.Kind = KindConstraint
	default:
		// Either an EGD (Var = Var) or a conjunction of head atoms.
		if p.tok.kind == tokVar {
			// Could be an EGD; peek for '='.
			v := p.tok
			if err := p.bump(); err != nil {
				return nil, err
			}
			if p.tok.kind == tokEq {
				if err := p.bump(); err != nil {
					return nil, err
				}
				rhs, err := p.parseTerm()
				if err != nil {
					return nil, err
				}
				r.Kind = KindEGD
				r.EqLeft = Term{Name: v.text, IsVar: true}
				r.EqRight = rhs
				break
			}
			return nil, &SyntaxError{Line: v.line, Col: v.col, Msg: "rule head must be an atom, 'false', or an equality"}
		}
		r.Kind = KindTGD
		for {
			a, err := p.parseAtom()
			if err != nil {
				return nil, err
			}
			r.Head = append(r.Head, a)
			if p.tok.kind != tokComma {
				break
			}
			if err := p.bump(); err != nil {
				return nil, err
			}
		}
	}
	if _, err := p.expect(tokPeriod); err != nil {
		return nil, err
	}
	return r, nil
}

func (p *parser) parseQuery() (*Query, error) {
	line := p.tok.line
	if _, err := p.expect(tokQuestion); err != nil {
		return nil, err
	}
	var lits []Literal
	for {
		lit, err := p.parseQueryLiteral()
		if err != nil {
			return nil, err
		}
		lits = append(lits, lit)
		if p.tok.kind != tokComma {
			break
		}
		if err := p.bump(); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(tokPeriod); err != nil {
		return nil, err
	}
	return &Query{Literals: lits, Line: line}, nil
}

// parseQueryLiteral parses an atom, a negated atom, or an equality
// (Var = term or term = term); equalities cannot be negated (§2.1: CQs may
// contain equalities but no inequalities).
func (p *parser) parseQueryLiteral() (Literal, error) {
	neg := false
	if p.tok.kind == tokNot {
		neg = true
		if err := p.bump(); err != nil {
			return Literal{}, err
		}
	}
	// Variable or non-predicate term opens an equality.
	if p.tok.kind == tokVar || p.tok.kind == tokNumber || p.tok.kind == tokString {
		lhs, err := p.parseTerm()
		if err != nil {
			return Literal{}, err
		}
		if _, err := p.expect(tokEq); err != nil {
			return Literal{}, err
		}
		rhs, err := p.parseTerm()
		if err != nil {
			return Literal{}, err
		}
		if neg {
			return Literal{}, p.errHere("inequalities are not allowed in queries")
		}
		return Literal{IsEq: true, EqLeft: lhs, EqRight: rhs}, nil
	}
	a, err := p.parseAtom()
	if err != nil {
		return Literal{}, err
	}
	// A bare identifier followed by '=' is a constant equality.
	if len(a.Args) == 0 && p.tok.kind == tokEq {
		if err := p.bump(); err != nil {
			return Literal{}, err
		}
		rhs, err := p.parseTerm()
		if err != nil {
			return Literal{}, err
		}
		if neg {
			return Literal{}, p.errHere("inequalities are not allowed in queries")
		}
		return Literal{IsEq: true, EqLeft: Term{Name: a.Pred}, EqRight: rhs}, nil
	}
	return Literal{Atom: a, Negated: neg}, nil
}

func (p *parser) parseLiterals() ([]Literal, error) {
	var lits []Literal
	for {
		neg := false
		if p.tok.kind == tokNot {
			neg = true
			if err := p.bump(); err != nil {
				return nil, err
			}
		}
		a, err := p.parseAtom()
		if err != nil {
			return nil, err
		}
		lits = append(lits, Literal{Atom: a, Negated: neg})
		if p.tok.kind != tokComma {
			return lits, nil
		}
		if err := p.bump(); err != nil {
			return nil, err
		}
	}
}

func (p *parser) parseAtom() (Atom, error) {
	if p.tok.kind != tokIdent {
		return Atom{}, p.errHere("expected predicate name, found %s", p.describe())
	}
	a := Atom{Pred: p.tok.text, Line: p.tok.line, Col: p.tok.col}
	if err := p.bump(); err != nil {
		return Atom{}, err
	}
	if p.tok.kind != tokLParen {
		return a, nil // propositional atom
	}
	if err := p.bump(); err != nil {
		return Atom{}, err
	}
	if p.tok.kind == tokRParen {
		return Atom{}, p.errHere("empty argument list; write a propositional atom without parentheses")
	}
	for {
		t, err := p.parseTerm()
		if err != nil {
			return Atom{}, err
		}
		a.Args = append(a.Args, t)
		if p.tok.kind == tokRParen {
			if err := p.bump(); err != nil {
				return Atom{}, err
			}
			return a, nil
		}
		if _, err := p.expect(tokComma); err != nil {
			return Atom{}, err
		}
	}
}

func (p *parser) parseTerm() (Term, error) {
	switch p.tok.kind {
	case tokVar:
		t := Term{Name: p.tok.text, IsVar: true}
		return t, p.bump()
	case tokIdent, tokNumber, tokString:
		t := Term{Name: p.tok.text}
		return t, p.bump()
	default:
		return Term{}, p.errHere("expected a term, found %s", p.describe())
	}
}
