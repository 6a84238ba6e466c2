// Package irtext implements the textual front end for the IR: a lexer and
// recursive-descent parser for ".ir" files, the stand-in for Dexpler's
// Dalvik-bytecode-to-Jimple conversion. App packages carry their code as
// .ir files next to AndroidManifest.xml, and the loader in internal/apk
// feeds them through this parser.
//
// The grammar is a compact Jimple dialect; see the package documentation of
// internal/ir for the statement algebra and testdata/ for examples:
//
//	class com.example.LeakageApp extends android.app.Activity {
//	    field user: com.example.User
//	    method onRestart(): void {
//	        et = this.findViewById(@id/pwdString)
//	        pwd = et.getText()
//	        this.user = pwd
//	    }
//	}
package irtext

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokInt
	tokString
	tokRes   // @id/name or @layout/name
	tokPunct // single punctuation: { } ( ) [ ] : , = ; .
	tokOp    // + - * / % binary operators (also '*' for opaque conditions)
)

// token is one lexeme. Its text is a substring of the source starting at
// byte offset pos, with one exception: a string literal containing an
// escape sequence carries its decoded value in a freshly built string.
type token struct {
	kind tokenKind
	text string
	num  int64
	line int
	pos  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of file"
	}
	return fmt.Sprintf("%q", t.text)
}

// Single-byte punctuation and operators; a token's text is sliced from
// these rather than converted from its byte.
const (
	punctChars = "{}()[]:,=;."
	opChars    = "+-*/%&|^"
)

// lexer turns source text into tokens. It is shared by the IR parser and
// kept deliberately simple: one-pass, no backtracking, line tracking for
// error messages.
type lexer struct {
	src  string
	file string
	pos  int
	line int
}

func newLexer(src, file string) *lexer {
	return &lexer{src: src, file: file, line: 1}
}

func (l *lexer) errf(line int, format string, args ...any) error {
	return fmt.Errorf("%s:%d: %s", l.file, line, fmt.Sprintf(format, args...))
}

func isIdentStart(r byte) bool {
	return r == '_' || r == '$' || unicode.IsLetter(rune(r))
}

func isIdentPart(r byte) bool {
	return isIdentStart(r) || r >= '0' && r <= '9'
}

// identClass classifies every byte value by the two predicates above, so
// the lexer's inner loops index a table instead of calling them.
var identClass = func() (t [256]uint8) {
	for b := range t {
		if isIdentStart(byte(b)) {
			t[b] |= identStart
		}
		if isIdentPart(byte(b)) {
			t[b] |= identPart
		}
	}
	return t
}()

const (
	identStart = 1 << iota
	identPart
)

// scan fills t with the next token, skipping whitespace and // comments.
func (l *lexer) scan(t *token) error {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		default:
			goto scan
		}
	}
	*t = token{kind: tokEOF, line: l.line, pos: l.pos}
	return nil

scan:
	start, line := l.pos, l.line
	c := l.src[l.pos]
	switch {
	case identClass[c]&identStart != 0:
		l.pos++
		for l.pos < len(l.src) && identClass[l.src[l.pos]]&identPart != 0 {
			l.pos++
		}
		*t = token{kind: tokIdent, text: l.src[start:l.pos], line: line, pos: start}
		return nil

	case c >= '0' && c <= '9' || c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9':
		l.pos++
		for l.pos < len(l.src) && (l.src[l.pos] >= '0' && l.src[l.pos] <= '9') {
			l.pos++
		}
		n, err := strconv.ParseInt(l.src[start:l.pos], 10, 64)
		if err != nil {
			return l.errf(line, "bad integer literal %q", l.src[start:l.pos])
		}
		*t = token{kind: tokInt, text: l.src[start:l.pos], num: n, line: line, pos: start}
		return nil

	case c == '"':
		l.pos++
		end := l.pos
		for end < len(l.src) && l.src[end] != '"' && l.src[end] != '\\' && l.src[end] != '\n' {
			end++
		}
		if end < len(l.src) && l.src[end] == '"' {
			*t = token{kind: tokString, text: l.src[l.pos:end], line: line, pos: l.pos}
			l.pos = end + 1 // closing quote
			return nil
		}
		text, err := l.escapedString(line, end)
		if err != nil {
			return err
		}
		*t = token{kind: tokString, text: text, line: line, pos: start + 1}
		return nil

	case c == '@':
		l.pos++
		for l.pos < len(l.src) && (identClass[l.src[l.pos]]&identPart != 0 || l.src[l.pos] == '/' || l.src[l.pos] == '.') {
			l.pos++
		}
		if l.pos == start+1 {
			return l.errf(line, "empty resource reference after '@'")
		}
		*t = token{kind: tokRes, text: l.src[start+1 : l.pos], line: line, pos: start + 1}
		return nil
	}
	if i := strings.IndexByte(punctChars, c); i >= 0 {
		l.pos++
		*t = token{kind: tokPunct, text: punctChars[i : i+1], line: line, pos: start}
		return nil
	}
	if i := strings.IndexByte(opChars, c); i >= 0 {
		l.pos++
		*t = token{kind: tokOp, text: opChars[i : i+1], line: line, pos: start}
		return nil
	}
	return l.errf(line, "unexpected character %q", string(c))
}

// escapedString decodes the rest of a string literal whose body starts at
// l.pos and has no escape, quote or newline before offset end. It leaves
// l.pos after the closing quote.
func (l *lexer) escapedString(line, end int) (string, error) {
	var sb strings.Builder
	sb.WriteString(l.src[l.pos:end])
	l.pos = end
	for l.pos < len(l.src) && l.src[l.pos] != '"' {
		ch := l.src[l.pos]
		escaped := ch == '\\' && l.pos+1 < len(l.src)
		if escaped {
			l.pos++
			ch = l.src[l.pos]
		}
		// A raw line break ends the literal early, escaped or not; the
		// \n escape decodes to one only here.
		if ch == '\n' {
			return "", l.errf(line, "unterminated string literal")
		}
		if escaped {
			switch ch {
			case 'n':
				ch = '\n'
			case 't':
				ch = '\t'
			}
		}
		sb.WriteByte(ch)
		l.pos++
	}
	if l.pos >= len(l.src) {
		return "", l.errf(line, "unterminated string literal")
	}
	l.pos++ // closing quote
	return sb.String(), nil
}
