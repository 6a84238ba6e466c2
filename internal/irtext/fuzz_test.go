package irtext_test

import (
	"math/rand"
	"strings"
	"testing"

	"flowdroid/internal/appgen"
	"flowdroid/internal/insecurebank"
	"flowdroid/internal/irtext"
)

// FuzzParse feeds the IR parser arbitrary source text. Malformed input
// must come back as an error — never a panic — and successful parses must
// produce a program. The corpus is seeded with the real InsecureBank
// sources and the code of an appgen Stress app, plus truncated and
// corrupted variants of them, the shapes a damaged app package would
// present.
func FuzzParse(f *testing.F) {
	_, irSources := irFiles(insecurebank.Files)
	if len(irSources) == 0 {
		f.Fatal("insecurebank has no .ir sources to seed from")
	}
	_, stress := irFiles(appgen.Generate(rand.New(rand.NewSource(1)), appgen.Stress, 0).Files)
	irSources = append(irSources, stress...)
	for _, src := range irSources {
		f.Add(src)
		f.Add(src[:len(src)/2])                                // truncated mid-file
		f.Add(src[:len(src)/3] + "{{{" + src[2*len(src)/3:])   // spliced garbage
		f.Add(strings.ReplaceAll(src, ":", ""))                // delimiters stripped
		f.Add(strings.ReplaceAll(src, "method", "me\x00thod")) // NUL injected
		f.Add(strings.Map(func(r rune) rune { return r + 1 }, src[:min(200, len(src))]))
	}
	f.Add("")
	f.Add("class")
	f.Add("class C { method")

	f.Fuzz(func(t *testing.T, src string) {
		prog, err := irtext.ParseProgram(src, "fuzz.ir")
		if err == nil && prog == nil {
			t.Fatal("ParseProgram returned neither a program nor an error")
		}
	})
}
