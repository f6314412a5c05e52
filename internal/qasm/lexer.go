// Package qasm reads and writes the OpenQASM 2.0 subset used by the RevLib
// and IBM QX benchmark circuits: qreg/creg declarations, the standard
// qelib1 single-qubit gates (u1/u2/u3, h, x, y, z, s, sdg, t, tdg, rz), cx,
// swap and ccx, with constant angle expressions over pi. Barriers, measures
// and comments are accepted and ignored.
package qasm

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokSymbol // single-char punctuation: ; , ( ) [ ] { } + - * / ->
)

type token struct {
	kind tokenKind
	text string
	line int
}

// lexer scans the source string in place: token texts are substrings of
// it. ASCII bytes are classified directly; anything above 0x7F is decoded
// with utf8 and classified with the same unicode predicates, so an invalid
// byte reads as U+FFFD, which starts no token.
type lexer struct {
	src  string
	pos  int
	line int
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1}
}

// peek returns the rune at pos and its width in bytes (0, 0 at the end).
func (l *lexer) peek() (rune, int) {
	if l.pos >= len(l.src) {
		return 0, 0
	}
	if c := l.src[l.pos]; c < utf8.RuneSelf {
		return rune(c), 1
	}
	return utf8.DecodeRuneInString(l.src[l.pos:])
}

// isSpace, isLetter and isDigit are unicode.IsSpace, IsLetter and IsDigit
// with an ASCII fast path.
func isSpace(r rune) bool {
	if r < utf8.RuneSelf {
		return r == ' ' || '\t' <= r && r <= '\r'
	}
	return unicode.IsSpace(r)
}

func isLetter(r rune) bool {
	if r < utf8.RuneSelf {
		return 'a' <= r && r <= 'z' || 'A' <= r && r <= 'Z'
	}
	return unicode.IsLetter(r)
}

func isDigit(r rune) bool {
	if r < utf8.RuneSelf {
		return '0' <= r && r <= '9'
	}
	return unicode.IsDigit(r)
}

// next returns the next token, skipping whitespace and // comments.
func (l *lexer) next() (token, error) {
	for {
		r, w := l.peek()
		switch {
		case w == 0:
			return token{kind: tokEOF, line: l.line}, nil
		case isSpace(r):
			if r == '\n' {
				l.line++
			}
			l.pos += w
			continue
		case r == '/' && strings.HasPrefix(l.src[l.pos:], "//"):
			if k := strings.IndexByte(l.src[l.pos:], '\n'); k >= 0 {
				l.pos += k
			} else {
				l.pos = len(l.src)
			}
			continue
		}
		break
	}

	start, line := l.pos, l.line
	r, w := l.peek()
	switch {
	case isLetter(r) || r == '_':
		for l.pos += w; ; l.pos += w {
			if r, w = l.peek(); w == 0 || !isLetter(r) && !isDigit(r) && r != '_' {
				break
			}
		}
		return token{kind: tokIdent, text: l.src[start:l.pos], line: line}, nil
	case isDigit(r) || r == '.':
		seenE := false
		for ; w != 0; r, w = l.peek() {
			if isDigit(r) || r == '.' {
				l.pos += w
				continue
			}
			if (r == 'e' || r == 'E') && !seenE {
				seenE = true
				l.pos++
				if r, _ := l.peek(); r == '+' || r == '-' {
					l.pos++
				}
				continue
			}
			break
		}
		return token{kind: tokNumber, text: l.src[start:l.pos], line: line}, nil
	case r == '"':
		end := strings.IndexByte(l.src[l.pos+1:], '"')
		if end < 0 {
			return token{}, fmt.Errorf("qasm: line %d: unterminated string", line)
		}
		text := l.src[l.pos+1 : l.pos+1+end]
		l.line += strings.Count(text, "\n")
		l.pos += end + 2
		if !utf8.ValidString(text) {
			// Keep the text the rune lexer gave: every invalid byte as
			// U+FFFD. Error messages quote token texts.
			text = string([]rune(text))
		}
		return token{kind: tokString, text: text, line: line}, nil
	case r < utf8.RuneSelf && strings.IndexByte(";,()[]{}+-*/", byte(r)) >= 0:
		l.pos++
		// Recognize "->" used by measure statements.
		if r == '-' && l.pos < len(l.src) && l.src[l.pos] == '>' {
			l.pos++
		}
		return token{kind: tokSymbol, text: l.src[start:l.pos], line: line}, nil
	}
	return token{}, fmt.Errorf("qasm: line %d: unexpected character %q", line, r)
}
