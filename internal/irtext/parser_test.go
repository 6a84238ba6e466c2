package irtext

import (
	"strings"
	"testing"

	"flowdroid/internal/ir"
)

const sampleSrc = `
// A small program exercising every statement form.
class com.test.User {
  field name: java.lang.String
  field pwd: java.lang.String
  method init(n: java.lang.String, p: java.lang.String): void {
    this.name = n
    this.pwd = p
  }
  method getPwd(): java.lang.String {
    r = this.pwd
    return r
  }
}

class com.test.Main {
  static field cache: com.test.User

  static method main(): void {
    n = "alice"
    p = com.test.Source.secret()
    u = new com.test.User(n, p)
    com.test.Main.cache = u
    s = u.getPwd()
    msg = "pwd: " + s
    arr = newarray java.lang.String
    arr[0] = msg
    t = arr[1]
    if * goto skip
    com.test.Sink.leak(t)
  skip:
    o = (java.lang.Object) u
    return
  }
}

class com.test.Source {
  static method secret(): java.lang.String;
}

class com.test.Sink {
  static method leak(s: java.lang.String): void;
}
`

func TestParseSample(t *testing.T) {
	prog, err := ParseProgram(sampleSrc, "sample.ir")
	if err != nil {
		t.Fatalf("ParseProgram: %v", err)
	}
	user := prog.Class("com.test.User")
	if user == nil {
		t.Fatal("class com.test.User not found")
	}
	if user.Super != "java.lang.Object" {
		t.Errorf("User super = %q, want java.lang.Object", user.Super)
	}
	if f := user.Field("pwd"); f == nil || !f.Type.Equal(ir.Ref("java.lang.String")) {
		t.Errorf("field pwd missing or mistyped: %v", f)
	}
	main := prog.Class("com.test.Main").Method("main", 0)
	if main == nil {
		t.Fatal("method main not found")
	}
	if !main.Static {
		t.Error("main should be static")
	}
	// Constructor sugar expands to alloc + special init call.
	var sawInit, sawStaticStore, sawArrayStore, sawCast bool
	for _, s := range main.Body() {
		if c := ir.CallOf(s); c != nil && c.Kind == ir.SpecialInvoke && c.Ref.Name == "init" {
			sawInit = true
			if c.Ref.Class != "com.test.User" {
				t.Errorf("init target class = %q", c.Ref.Class)
			}
		}
		if a, ok := s.(*ir.AssignStmt); ok {
			if _, ok := a.LHS.(*ir.StaticFieldRef); ok {
				sawStaticStore = true
			}
			if _, ok := a.LHS.(*ir.ArrayRef); ok {
				sawArrayStore = true
			}
			if _, ok := a.RHS.(*ir.Cast); ok {
				sawCast = true
			}
		}
	}
	if !sawInit {
		t.Error("constructor sugar did not expand to init call")
	}
	if !sawStaticStore {
		t.Error("static field store not parsed")
	}
	if !sawArrayStore {
		t.Error("array store not parsed")
	}
	if !sawCast {
		t.Error("cast not parsed")
	}
	// Stub methods have no body.
	if m := prog.Class("com.test.Source").Method("secret", 0); m == nil || !m.Abstract() {
		t.Error("stub method secret should be abstract")
	}
}

func TestTypeInference(t *testing.T) {
	prog, err := ParseProgram(sampleSrc, "sample.ir")
	if err != nil {
		t.Fatal(err)
	}
	main := prog.Class("com.test.Main").Method("main", 0)
	wantTypes := map[string]string{
		"u":   "com.test.User",
		"s":   "java.lang.String",
		"p":   "java.lang.String",
		"msg": "java.lang.String",
		"arr": "java.lang.String[]",
		"o":   "java.lang.Object",
	}
	for name, want := range wantTypes {
		l := main.LookupLocal(name)
		if l == nil {
			t.Errorf("local %s missing", name)
			continue
		}
		if got := l.Type.String(); got != want {
			t.Errorf("local %s: type = %s, want %s", name, got, want)
		}
	}
}

func TestFieldResolution(t *testing.T) {
	prog, err := ParseProgram(sampleSrc, "sample.ir")
	if err != nil {
		t.Fatal(err)
	}
	user := prog.Class("com.test.User")
	getPwd := user.Method("getPwd", 0)
	a := getPwd.Body()[0].(*ir.AssignStmt)
	fr, ok := a.RHS.(*ir.FieldRef)
	if !ok {
		t.Fatalf("first stmt of getPwd should load a field, got %T", a.RHS)
	}
	if fr.Field == nil || fr.Field != user.Field("pwd") {
		t.Errorf("field not resolved to declaration: %v", fr.Field)
	}
}

func TestBranchResolution(t *testing.T) {
	prog, err := ParseProgram(sampleSrc, "sample.ir")
	if err != nil {
		t.Fatal(err)
	}
	main := prog.Class("com.test.Main").Method("main", 0)
	var ifs *ir.IfStmt
	for _, s := range main.Body() {
		if i, ok := s.(*ir.IfStmt); ok {
			ifs = i
		}
	}
	if ifs == nil {
		t.Fatal("no if statement found")
	}
	target := main.Body()[ifs.TargetIndex]
	if target.Label() != "skip" {
		t.Errorf("if target label = %q, want skip", target.Label())
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"duplicate class", `class A {} class A {}`, "duplicate class"},
		{"undefined label", `class A { method m(): void { goto L } }`, "undefined label"},
		{"chained fields", `class A { field f: A  method m(): void { local x: A  y = x.f.f } }`, "three-address"},
		{"bad condition", `class A { method m(): void { if x goto L } }`, "opaque"},
		{"unterminated string", `class A { method m(): void { x = "abc } }`, "unterminated"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseProgram(tc.src, "t.ir")
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

func TestRoundTripPrint(t *testing.T) {
	prog, err := ParseProgram(sampleSrc, "sample.ir")
	if err != nil {
		t.Fatal(err)
	}
	// Printing and reparsing the printed text must succeed and preserve
	// the class inventory (a weak but useful round-trip property).
	var sb strings.Builder
	for _, c := range prog.Classes() {
		if c.Name == "java.lang.Object" {
			continue
		}
		sb.WriteString(ir.PrintClass(c))
	}
	prog2, err := ParseProgram(sb.String(), "printed.ir")
	if err != nil {
		t.Fatalf("reparse of printed program failed: %v\n%s", err, sb.String())
	}
	for _, c := range prog.Classes() {
		if prog2.Class(c.Name) == nil && c.Name != "java.lang.Object" {
			t.Errorf("class %s lost in round trip", c.Name)
		}
	}
}

func TestParseErrorPositions(t *testing.T) {
	// Errors must carry file:line positions.
	src := "class A {\n  method m(): void {\n    if x goto L\n  }\n}"
	_, err := ParseProgram(src, "pos.ir")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "pos.ir:3") {
		t.Errorf("error lacks position: %v", err)
	}
}

func TestClassPositions(t *testing.T) {
	// The parser records where each class was declared so diagnostics can
	// be positioned.
	src := "class A {\n}\nclass B {\n  method m(): void { return }\n}"
	prog, err := ParseProgram(src, "pos.ir")
	if err != nil {
		t.Fatal(err)
	}
	for name, line := range map[string]int{"A": 1, "B": 3} {
		c := prog.Class(name)
		if c.File != "pos.ir" || c.Line != line {
			t.Errorf("class %s declared at %s:%d, want pos.ir:%d", name, c.File, c.Line, line)
		}
	}
}

func TestDeclaredFlag(t *testing.T) {
	// "local" declarations, parameters and the receiver are Declared;
	// locals created by first assignment are not.
	src := `class A { method m(p: int): void { local x: A  y = 1  return } }`
	prog, err := ParseProgram(src, "t.ir")
	if err != nil {
		t.Fatal(err)
	}
	m := prog.Class("A").Method("m", 1)
	for name, want := range map[string]bool{"p": true, "x": true, "this": true, "y": false} {
		if l := m.LookupLocal(name); l == nil || l.Declared != want {
			t.Errorf("local %s: Declared = %v, want %v", name, l != nil && l.Declared, want)
		}
	}
}

func TestMoreParseErrors(t *testing.T) {
	cases := []struct{ name, src, wantErr string }{
		{"missing class keyword", `method m(): void {}`, "expected class"},
		{"bad member", `class A { banana }`, "field or method"},
		{"missing arity paren", `class A { method m: void {} }`, `expected "("`},
		{"call on missing receiver", `class A { method m(): void { foo() } }`, "receiver"},
		{"array base not local", `class A { method m(): void { a.b[0] = 1 } }`, "array base"},
		{"binop needs simple", `class A { field f: A  method m(): void { local x: A  y = x.f + x } }`, "temporary"},
		{"two labels", `class A { method m(): void { L1: L2: nop } }`, "consecutive labels"},
		{"ctor to field", `class B { method init(): void { return } } class A { field f: B  method m(): void { this.f = new B() } }`, "local"},
		{"duplicate method", `class A { method m(): void {} method m(): void {} }`, "duplicate method"},
		{"duplicate field", `class A { field f: A  field f: A }`, "duplicate field"},
		{"bad char", "class A { method m(): void { x = ~ } }", "unexpected character"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseProgram(tc.src, "t.ir")
			if err == nil {
				t.Fatalf("expected error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

func TestTrailingLabelGetsNop(t *testing.T) {
	prog, err := ParseProgram(`class A { method m(): void { if * goto end  x = 1
  end:
} }`, "t.ir")
	if err != nil {
		t.Fatal(err)
	}
	m := prog.Class("A").Method("m", 0)
	var found bool
	for _, s := range m.Body() {
		if s.Label() == "end" {
			found = true
		}
	}
	if !found {
		t.Error("trailing label lost")
	}
}

func TestInterfaceParsing(t *testing.T) {
	prog, err := ParseProgram(`
interface I {
  method f(x: int): int;
}
interface J extends I {
}
class A implements J {
  method f(x: int): int {
    return x
  }
}
`, "i.ir")
	if err != nil {
		t.Fatal(err)
	}
	if !prog.Class("I").Interface || !prog.Class("J").Interface {
		t.Error("interfaces not marked")
	}
	if !prog.SubtypeOf("A", "I") {
		t.Error("A should implement I via J")
	}
	if m := prog.ResolveMethod("J", "f", 1); m == nil || !m.Abstract() {
		t.Error("interface method should resolve as abstract")
	}
}

func TestStringEscapesRoundTrip(t *testing.T) {
	// A constant holding a newline or a tab is written with the \n and \t
	// escapes (ir.Const prints with %q) and must parse back to itself.
	const want = "line1\nline2\tcol"
	parseConst := func(src string) string {
		t.Helper()
		prog := ir.NewProgram()
		if err := ParseInto(prog, src, "t.ir"); err != nil {
			t.Fatalf("%v\n%s", err, src)
		}
		if err := prog.Link(); err != nil {
			t.Fatal(err)
		}
		as := prog.Class("A").Method("m", 0).Body()[0].(*ir.AssignStmt)
		return as.RHS.(*ir.Const).Str
	}
	src := `class A { method m(): void { x = "line1\nline2\tcol"  return } }`
	if got := parseConst(src); got != want {
		t.Fatalf("parsed %q, want %q", got, want)
	}
	prog, err := ParseProgram(src, "t.ir")
	if err != nil {
		t.Fatal(err)
	}
	printed := ir.PrintClass(prog.Class("A"))
	if got := parseConst(printed); got != want {
		t.Fatalf("reparsed %q, want %q from\n%s", got, want, printed)
	}
}

func TestRawLineBreakInStringLiteral(t *testing.T) {
	// A raw line break inside a literal, escaped or not, is still an
	// unterminated literal reported at the literal's line.
	for _, lit := range []string{"\"a\nb\"", "\"a\\\nb\""} {
		src := "class A {\n  method m(): void {\n    x = " + lit + "\n    return\n  }\n}"
		_, err := ParseProgram(src, "pos.ir")
		if err == nil || !strings.Contains(err.Error(), "unterminated string literal") || !strings.Contains(err.Error(), "pos.ir:3") {
			t.Errorf("literal %q: error %v, want an unterminated string literal at pos.ir:3", lit, err)
		}
	}
}
