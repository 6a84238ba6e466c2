package irtext_test

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"flowdroid/internal/appgen"
	"flowdroid/internal/framework"
	"flowdroid/internal/ir"
	"flowdroid/internal/irtext"
)

// checkSpans lexes src and checks the token-span invariant: offsets
// strictly increase, and every token's text is the source at its offset,
// except a string literal with an escape, whose text is decoded.
func checkSpans(t *testing.T, name, src string) {
	t.Helper()
	spans, err := irtext.LexSpans(src)
	if err != nil {
		t.Errorf("%s: %v", name, err)
		return
	}
	prev := -1
	for _, s := range spans {
		if s.Pos <= prev {
			t.Errorf("%s: token %q at offset %d does not follow offset %d", name, s.Text, s.Pos, prev)
			return
		}
		prev = s.Pos
		if s.Pos+len(s.Text) <= len(src) && src[s.Pos:s.Pos+len(s.Text)] == s.Text {
			continue
		}
		if s.String && escaped(src[s.Pos:]) {
			continue // decoded text of an escaped literal
		}
		t.Errorf("%s: token %q at offset %d is not a span of the source", name, s.Text, s.Pos)
		return
	}
	if last := spans[len(spans)-1]; last.Pos != len(src) || last.Text != "" {
		t.Errorf("%s: end-of-file token at offset %d, want %d", name, last.Pos, len(src))
	}
}

// escaped reports whether the string literal body starting at lit holds
// an escape before its closing quote.
func escaped(lit string) bool {
	b := strings.IndexByte(lit, '\\')
	q := strings.IndexByte(lit, '"')
	return b >= 0 && (q < 0 || b < q)
}

func checkFiles(t *testing.T, name string, files map[string]string) {
	t.Helper()
	names, srcs := irFiles(files)
	for i, src := range srcs {
		checkSpans(t, name+"/"+names[i], src)
	}
}

// TestTokenSpans checks the span invariant over the .ir files of every
// shipped fixture, the printed form of the framework stubs, and random
// appgen apps.
func TestTokenSpans(t *testing.T) {
	for _, f := range shippedFixtures() {
		checkFiles(t, f.name, f.files)
	}
	var stubs strings.Builder
	for _, c := range framework.NewProgram().Classes() {
		stubs.WriteString(ir.PrintClass(c))
	}
	checkSpans(t, "framework (printed)", stubs.String())
	checkSpans(t, "escapes", `class A { method m(): void { s = "a\"b\tc"  u = "" } }`)

	seed := time.Now().UnixNano()
	t.Logf("random appgen apps from seed %d", seed)
	r := rand.New(rand.NewSource(seed))
	for _, p := range []appgen.Profile{appgen.Play, appgen.Malware, appgen.Reflection, appgen.Stress} {
		for i := 0; i < 3; i++ {
			app := appgen.Generate(r, p, i)
			checkFiles(t, app.Name, app.Files)
		}
	}
}
