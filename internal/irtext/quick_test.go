package irtext

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"flowdroid/internal/ir"
)

// randSource emits a random well-formed IR source: a class with one
// method whose statements are drawn from every form the grammar supports.
func randSource(r *rand.Rand, nStmts int) string {
	var sb strings.Builder
	sb.WriteString("class Q {\n")
	sb.WriteString("  field f: java.lang.String\n")
	sb.WriteString("  static field sf: java.lang.String\n")
	sb.WriteString("  method helper(x: java.lang.String): java.lang.String {\n    return x\n  }\n")
	sb.WriteString("  method m(p: java.lang.String): void {\n")
	sb.WriteString("    a = \"a\"\n    b = \"b\"\n    o = new Q\n")
	labels := 0
	for i := 0; i < nStmts; i++ {
		switch r.Intn(10) {
		case 0:
			sb.WriteString("    a = b\n")
		case 1:
			fmt.Fprintf(&sb, "    b = \"s%d\"\n", i)
		case 2:
			sb.WriteString("    a = b + p\n")
		case 3:
			sb.WriteString("    o.f = a\n")
		case 4:
			sb.WriteString("    b = o.f\n")
		case 5:
			sb.WriteString("    Q.sf = b\n")
		case 6:
			sb.WriteString("    a = Q.sf\n")
		case 7:
			labels++
			fmt.Fprintf(&sb, "    if * goto W%d\n    a = b\n  W%d:\n", labels, labels)
		case 8:
			sb.WriteString("    a = o.helper(b)\n")
		case 9:
			fmt.Fprintf(&sb, "    a = %d\n    a = b\n", r.Intn(1000))
		}
	}
	sb.WriteString("    return\n  }\n}\n")
	return sb.String()
}

// kindSignature summarizes a body as statement-kind mnemonics for
// comparing programs across a print/parse round trip.
func kindSignature(m *ir.Method) string {
	var sb strings.Builder
	for _, s := range m.Body() {
		switch s := s.(type) {
		case *ir.AssignStmt:
			sb.WriteString("a")
			if _, ok := s.RHS.(*ir.InvokeExpr); ok {
				sb.WriteString("c")
			}
		case *ir.InvokeStmt:
			sb.WriteString("i")
		case *ir.IfStmt:
			sb.WriteString("?")
		case *ir.GotoStmt:
			sb.WriteString("g")
		case *ir.ReturnStmt:
			sb.WriteString("r")
		case *ir.NopStmt:
			sb.WriteString("n")
		}
	}
	return sb.String()
}

// TestQuickPrintParseRoundTrip: printing a parsed random program and
// re-parsing the output preserves the statement structure — the printer
// and the grammar agree.
func TestQuickPrintParseRoundTrip(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		r := rand.New(rand.NewSource(seed))
		src := randSource(r, int(size%30))
		p1, err := ParseProgram(src, "gen.ir")
		if err != nil {
			t.Logf("generated source did not parse: %v\n%s", err, src)
			return false
		}
		printed := ir.PrintClass(p1.Class("Q"))
		p2, err := ParseProgram(printed, "printed.ir")
		if err != nil {
			t.Logf("printed source did not parse: %v\n%s", err, printed)
			return false
		}
		m1 := p1.Class("Q").Method("m", 1)
		m2 := p2.Class("Q").Method("m", 1)
		return kindSignature(m1) == kindSignature(m2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestQuickLexerNeverLoops: arbitrary input either tokenizes to EOF or
// fails with an error — the lexer always makes progress.
func TestQuickLexerNeverLoops(t *testing.T) {
	f := func(data []byte) bool {
		l := newLexer(string(data), "fuzz")
		var tok token
		for steps := 0; steps < len(data)+10; steps++ {
			if err := l.scan(&tok); err != nil {
				return true
			}
			if tok.kind == tokEOF {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestQuickParserNeverPanics: arbitrary text never panics the parser.
func TestQuickParserNeverPanics(t *testing.T) {
	f := func(data []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, _ = ParseProgram(string(data), "fuzz.ir")
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestQuickStringLiterals: string constants with escapes survive a lex.
func TestQuickStringLiterals(t *testing.T) {
	f := func(s string) bool {
		// Build a literal with the lexer's escaping rules.
		var lit strings.Builder
		lit.WriteByte('"')
		for i := 0; i < len(s); i++ {
			switch s[i] {
			case '"':
				lit.WriteString(`\"`)
			case '\\':
				lit.WriteString(`\\`)
			case '\n':
				lit.WriteString(`\n`)
			case '\t':
				lit.WriteString(`\t`)
			default:
				lit.WriteByte(s[i])
			}
		}
		lit.WriteByte('"')
		var tok token
		if err := newLexer(lit.String(), "lit").scan(&tok); err != nil || tok.kind != tokString {
			return false
		}
		return tok.text == s
	}
	// Arbitrary Unicode strings, from quick's default generator.
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	// The same domain with the characters that need escapes (line
	// breaks, tabs, quotes, backslashes) drawn at half the positions,
	// so most strings carry several of them.
	const escapes = "\n\t\"\\"
	gen := func(args []reflect.Value, r *rand.Rand) {
		var b strings.Builder
		for n := r.Intn(50); n > 0; n-- {
			if r.Intn(2) == 0 {
				b.WriteByte(escapes[r.Intn(len(escapes))])
			} else {
				b.WriteRune(rune(r.Int31n(0x10ffff)))
			}
		}
		args[0] = reflect.ValueOf(b.String())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Values: gen}); err != nil {
		t.Error(err)
	}
}
