package parser

import (
	"fmt"
	"unicode"
	"unicode/utf8"
)

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokVar
	tokNumber
	tokString
	tokLParen
	tokRParen
	tokComma
	tokPeriod
	tokArrow
	tokNot
	tokQuestion
	tokEq
	tokFalse
)

func (k tokKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokVar:
		return "variable"
	case tokNumber:
		return "number"
	case tokString:
		return "string"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokComma:
		return "','"
	case tokPeriod:
		return "'.'"
	case tokArrow:
		return "'->'"
	case tokNot:
		return "'not'"
	case tokQuestion:
		return "'?'"
	case tokEq:
		return "'='"
	case tokFalse:
		return "'false'"
	default:
		return fmt.Sprintf("tok(%d)", int(k))
	}
}

type token struct {
	kind      tokKind
	text      string
	line, col int
	off       int // byte offset of the token in the source
}

type lexer struct {
	src       string
	pos       int
	line, col int
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, col: 1}
}

func (l *lexer) errf(line, col int, format string, args ...any) *SyntaxError {
	return &SyntaxError{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) peekRune() (rune, int) {
	if l.pos >= len(l.src) {
		return 0, 0
	}
	if c := l.src[l.pos]; c < utf8.RuneSelf {
		return rune(c), 1
	}
	return utf8.DecodeRuneInString(l.src[l.pos:])
}

func (l *lexer) advance(r rune, size int) {
	l.pos += size
	if r == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
}

func (l *lexer) skipSpaceAndComments() {
	for {
		r, size := l.peekRune()
		if size == 0 {
			return
		}
		switch {
		case unicode.IsSpace(r):
			l.advance(r, size)
		case r == '%' || r == '#':
			for {
				r, size = l.peekRune()
				if size == 0 || r == '\n' {
					break
				}
				l.advance(r, size)
			}
		default:
			return
		}
	}
}

// isIdentStart and isIdentPart classify ASCII without a table lookup; on
// ASCII they agree with the unicode classes used for everything else.
func isIdentStart(r rune) bool {
	if r < utf8.RuneSelf {
		return isASCIILetter(byte(r)) || r == '_'
	}
	return unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	if r < utf8.RuneSelf {
		return isASCIIIdentPart(byte(r))
	}
	return unicode.IsLetter(r) || unicode.IsDigit(r)
}

func isASCIILetter(c byte) bool { return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' }

func isASCIIDigit(c byte) bool { return '0' <= c && c <= '9' }

func isASCIIIdentPart(c byte) bool {
	return isASCIILetter(c) || isASCIIDigit(c) || c == '_' || c == '\''
}

// next returns the next token, or an error on malformed input.
func (l *lexer) next() (token, error) {
	l.skipSpaceAndComments()
	tok := token{line: l.line, col: l.col, off: l.pos}
	r, size := l.peekRune()
	if size == 0 {
		tok.kind = tokEOF
		return tok, nil
	}
	single := func(kind tokKind) (token, error) {
		l.advance(r, size)
		tok.kind, tok.text = kind, l.src[tok.off:l.pos]
		return tok, nil
	}
	switch {
	case r == '(':
		return single(tokLParen)
	case r == ')':
		return single(tokRParen)
	case r == ',':
		return single(tokComma)
	case r == '.':
		return single(tokPeriod)
	case r == '?':
		return single(tokQuestion)
	case r == '=':
		return single(tokEq)
	case r == '-':
		l.advance(r, size)
		r2, size2 := l.peekRune()
		if r2 != '>' {
			return token{}, l.errf(tok.line, tok.col, "expected '->' after '-'")
		}
		l.advance(r2, size2)
		tok.kind, tok.text = tokArrow, "->"
		return tok, nil
	case r == '"':
		l.advance(r, size)
		start := l.pos
		for {
			r2, size2 := l.peekRune()
			if size2 == 0 || r2 == '\n' {
				return token{}, l.errf(tok.line, tok.col, "unterminated string literal")
			}
			if r2 == '"' {
				tok.kind, tok.text = tokString, l.src[start:l.pos]
				l.advance(r2, size2)
				return tok, nil
			}
			l.advance(r2, size2)
		}
	case unicode.IsDigit(r):
		for {
			r2, size2 := l.peekRune()
			if size2 == 0 || !(unicode.IsDigit(r2) || r2 == '_') {
				break
			}
			l.advance(r2, size2)
		}
		tok.kind, tok.text = tokNumber, l.src[tok.off:l.pos]
		return tok, nil
	case isIdentStart(r):
		for {
			r2, size2 := l.peekRune()
			if size2 == 0 || !isIdentPart(r2) {
				break
			}
			l.advance(r2, size2)
		}
		tok.text = l.src[tok.off:l.pos]
		first, _ := utf8.DecodeRuneInString(tok.text)
		switch {
		case tok.text == "not":
			tok.kind = tokNot
		case tok.text == "false":
			tok.kind = tokFalse
		case unicode.IsUpper(first) || first == '_':
			tok.kind = tokVar
		default:
			tok.kind = tokIdent
		}
		return tok, nil
	default:
		return token{}, l.errf(tok.line, tok.col, "unexpected character %q", r)
	}
}
