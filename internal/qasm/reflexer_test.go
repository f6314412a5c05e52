package qasm

import (
	"fmt"
	"strings"
	"unicode"
)

// refLexer is the rune-slice lexer that the byte-slicing lexer replaced,
// kept as the reference that FuzzLexMatchesReference compares it with: it
// converts the whole input to []rune and builds every identifier, number
// and string in a fresh strings.Builder.
type refLexer struct {
	src  []rune
	pos  int
	line int
}

func newRefLexer(src string) *refLexer {
	return &refLexer{src: []rune(src), line: 1}
}

func (l *refLexer) peekRune() rune {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *refLexer) advance() rune {
	r := l.src[l.pos]
	l.pos++
	if r == '\n' {
		l.line++
	}
	return r
}

// next returns the next token, skipping whitespace and // comments.
func (l *refLexer) next() (token, error) {
	for l.pos < len(l.src) {
		r := l.peekRune()
		switch {
		case unicode.IsSpace(r):
			l.advance()
		case r == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			for l.pos < len(l.src) && l.peekRune() != '\n' {
				l.advance()
			}
		default:
			goto scan
		}
	}
	return token{kind: tokEOF, line: l.line}, nil

scan:
	start := l.line
	r := l.peekRune()
	switch {
	case unicode.IsLetter(r) || r == '_':
		var b strings.Builder
		for l.pos < len(l.src) {
			r := l.peekRune()
			if !unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '_' {
				break
			}
			b.WriteRune(l.advance())
		}
		return token{kind: tokIdent, text: b.String(), line: start}, nil
	case unicode.IsDigit(r) || r == '.':
		var b strings.Builder
		seenE := false
		for l.pos < len(l.src) {
			r := l.peekRune()
			if unicode.IsDigit(r) || r == '.' {
				b.WriteRune(l.advance())
				continue
			}
			if (r == 'e' || r == 'E') && !seenE {
				seenE = true
				b.WriteRune(l.advance())
				if l.peekRune() == '+' || l.peekRune() == '-' {
					b.WriteRune(l.advance())
				}
				continue
			}
			break
		}
		return token{kind: tokNumber, text: b.String(), line: start}, nil
	case r == '"':
		l.advance()
		var b strings.Builder
		for l.pos < len(l.src) && l.peekRune() != '"' {
			b.WriteRune(l.advance())
		}
		if l.pos >= len(l.src) {
			return token{}, fmt.Errorf("qasm: line %d: unterminated string", start)
		}
		l.advance()
		return token{kind: tokString, text: b.String(), line: start}, nil
	case strings.ContainsRune(";,()[]{}+-*/", r):
		l.advance()
		// Recognize "->" used by measure statements.
		if r == '-' && l.peekRune() == '>' {
			l.advance()
			return token{kind: tokSymbol, text: "->", line: start}, nil
		}
		return token{kind: tokSymbol, text: string(r), line: start}, nil
	}
	return token{}, fmt.Errorf("qasm: line %d: unexpected character %q", start, r)
}

// refLexAll tokenizes the whole input with the reference lexer.
func refLexAll(src string) ([]token, error) {
	l := newRefLexer(src)
	var toks []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}
