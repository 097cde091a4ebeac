// Package minic implements a small C-like language — the front end of the
// tool chain. It substitutes for the SUIF C front end used by the paper:
// MediaBench-style fixed-point kernels are written in MiniC, compiled to
// the ir package's three-address form, and then preprocessed (notably by
// if-conversion) before ISE identification.
//
// The language: 32-bit int is the only scalar type; one-dimensional int
// arrays (global, local, or passed as parameters); functions returning
// int or void; if/else, while, for, break, continue, return; the usual C
// operator set including ?: and compound assignment. Logical && and ||
// are evaluated eagerly (kernels keep conditions side-effect-free), which
// keeps basic blocks large, as the paper's if-converted code is. min(a,b),
// max(a,b) and abs(a) are intrinsics that map to single IR operations.
package minic

import (
	"fmt"
	"strings"
)

// TokKind enumerates token kinds.
type TokKind uint8

const (
	TokEOF TokKind = iota
	TokIdent
	TokNumber
	TokKeyword
	TokPunct
)

// Token is one lexical token.
type Token struct {
	Kind TokKind
	Text string
	Val  int64 // TokNumber value
	Line int
	Col  int
}

func (t Token) String() string {
	switch t.Kind {
	case TokEOF:
		return "end of input"
	case TokNumber:
		return fmt.Sprintf("number %s", t.Text)
	default:
		return fmt.Sprintf("%q", t.Text)
	}
}

// isKeyword reports whether an identifier-shaped word is reserved.
func isKeyword(s string) bool {
	switch s {
	case "int", "void", "if", "else", "while", "for", "return", "break", "continue":
		return true
	}
	return false
}

// punct returns the punctuation token that starts s, longest match
// first, or "" if there is none. The 43 tokens are
//
//	<<= >>= == != <= >= && || << >> += -= *= /= %= &= |= ^= ++ --
//	+ - * / % & | ^ ~ ! < > = ( ) { } [ ] ; , ? :
func punct(s string) string {
	var c1, c2 byte
	if len(s) > 1 {
		c1 = s[1]
	}
	if len(s) > 2 {
		c2 = s[2]
	}
	switch s[0] {
	case '<', '>':
		switch {
		case c1 == s[0] && c2 == '=':
			return s[:3]
		case c1 == s[0] || c1 == '=':
			return s[:2]
		}
	case '&', '|', '+', '-':
		if c1 == s[0] || c1 == '=' {
			return s[:2]
		}
	case '=', '!', '*', '/', '%', '^':
		if c1 == '=' {
			return s[:2]
		}
	case '~', '(', ')', '{', '}', '[', ']', ';', ',', '?', ':':
		// single characters only
	default:
		return ""
	}
	return s[:1]
}

// Error is a front-end diagnostic carrying a source position.
type Error struct {
	Line, Col int
	Msg       string
}

func (e *Error) Error() string { return fmt.Sprintf("%d:%d: %s", e.Line, e.Col, e.Msg) }

func errf(line, col int, format string, args ...any) *Error {
	return &Error{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

// Lex tokenizes src. It supports decimal and hexadecimal integer
// literals, character literals, // line comments and /* */ comments.
func Lex(src string) ([]Token, error) {
	// MiniC sources run 2 to 5 bytes per token. Starting from a third of
	// the length allocates less in total than growing from empty, on
	// dense sources and sparse ones alike.
	toks := make([]Token, 0, len(src)/3+1)
	line, col := 1, 1
	i := 0
	n := len(src)
	// skipTo moves i to j, counting the lines and columns of src[i:j].
	skipTo := func(j int) {
		seg := src[i:j]
		if nl := strings.LastIndexByte(seg, '\n'); nl >= 0 {
			line += strings.Count(seg, "\n")
			col = len(seg) - nl
		} else {
			col += len(seg)
		}
		i = j
	}
	for i < n {
		c := src[i]
		switch {
		case c == '\n':
			line++
			col = 1
			i++
		case c == ' ' || c == '\t' || c == '\r':
			col++
			i++
		case c == '/' && i+1 < n && src[i+1] == '/':
			j := strings.IndexByte(src[i:], '\n')
			if j < 0 {
				j = n - i
			}
			col += j
			i += j
		case c == '/' && i+1 < n && src[i+1] == '*':
			end := strings.Index(src[i+2:], "*/")
			if end < 0 {
				return nil, errf(line, col, "unterminated comment")
			}
			skipTo(i + 2 + end + 2)
		case c >= '0' && c <= '9':
			start := i
			base := int64(10)
			if c == '0' && i+1 < n && (src[i+1] == 'x' || src[i+1] == 'X') {
				base = 16
				i += 2
			}
			var v int64
			digits := 0
			for i < n {
				d := int64(-1)
				ch := src[i]
				switch {
				case ch >= '0' && ch <= '9':
					d = int64(ch - '0')
				case base == 16 && ch >= 'a' && ch <= 'f':
					d = int64(ch-'a') + 10
				case base == 16 && ch >= 'A' && ch <= 'F':
					d = int64(ch-'A') + 10
				}
				if d < 0 || d >= base {
					break
				}
				v = v*base + d
				digits++
				i++
				if v > 1<<40 {
					return nil, errf(line, col, "integer literal too large")
				}
			}
			if digits == 0 {
				return nil, errf(line, col, "malformed number")
			}
			if i < n && (isIdentChar(src[i]) || src[i] == '.') {
				return nil, errf(line, col, "malformed number")
			}
			toks = append(toks, Token{Kind: TokNumber, Text: src[start:i], Val: v, Line: line, Col: col})
			col += i - start
		case c == '\'':
			sl, sc := line, col
			if i+3 < n && src[i+1] == '\\' && src[i+3] == '\'' {
				var v int64
				switch src[i+2] {
				case 'n':
					v = '\n'
				case 't':
					v = '\t'
				case '0':
					v = 0
				case '\\':
					v = '\\'
				case '\'':
					v = '\''
				default:
					return nil, errf(sl, sc, "unknown escape")
				}
				toks = append(toks, Token{Kind: TokNumber, Text: src[i : i+4], Val: v, Line: sl, Col: sc})
				col += 4
				i += 4
			} else if i+2 < n && src[i+2] == '\'' {
				toks = append(toks, Token{Kind: TokNumber, Text: src[i : i+3], Val: int64(src[i+1]), Line: sl, Col: sc})
				skipTo(i + 3) // the quoted byte may be a newline
			} else {
				return nil, errf(sl, sc, "malformed character literal")
			}
		case isIdentStart(c):
			start := i
			for i < n && isIdentChar(src[i]) {
				i++
			}
			text := src[start:i]
			kind := TokIdent
			if isKeyword(text) {
				kind = TokKeyword
			}
			toks = append(toks, Token{Kind: kind, Text: text, Line: line, Col: col})
			col += i - start
		default:
			p := punct(src[i:])
			if p == "" {
				return nil, errf(line, col, "unexpected character %q", string(c))
			}
			toks = append(toks, Token{Kind: TokPunct, Text: p, Line: line, Col: col})
			col += len(p)
			i += len(p)
		}
	}
	toks = append(toks, Token{Kind: TokEOF, Line: line, Col: col})
	return toks, nil
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentChar(c byte) bool { return isIdentStart(c) || (c >= '0' && c <= '9') }
