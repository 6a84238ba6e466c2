package constprop_test

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"flowdroid/internal/appgen"
	"flowdroid/internal/constprop"
	"flowdroid/internal/droidbench"
	"flowdroid/internal/framework"
	"flowdroid/internal/irtext"
	"flowdroid/internal/scene"
)

// irSource joins an app package's .ir files, in name order, into one
// source.
func irSource(files map[string]string) string {
	var names []string
	for name := range files {
		if strings.HasSuffix(name, ".ir") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, name := range names {
		sb.WriteString(files[name])
		sb.WriteByte('\n')
	}
	return sb.String()
}

// siteString renders every field of every site, statements by identity.
func siteString(res *constprop.Result) string {
	var sb strings.Builder
	for _, s := range res.Sites {
		fmt.Fprintf(&sb, "%p %s %s %v %v %v\n", s.Stmt, s.In, s.API, s.Targets, s.Ctors, s.Unresolved)
	}
	fmt.Fprintf(&sb, "resolved=%d truncated=%v\n", res.Report.ResolvedSites, res.Truncated)
	return sb.String()
}

// FuzzAnalyze runs constant propagation over arbitrary programs. Any
// source that parses and links must analyze without panicking and give
// the same sites on a second run. The corpus is seeded with an appgen
// Reflection app and the DroidBench reflection cases.
func FuzzAnalyze(f *testing.F) {
	f.Add(irSource(appgen.Generate(rand.New(rand.NewSource(1)), appgen.Reflection, 0).Files))
	for _, c := range droidbench.ExtraCases() {
		if strings.HasPrefix(c.Name, "Reflection") {
			f.Add(irSource(c.Files))
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog := framework.NewProgram()
		if irtext.ParseInto(prog, src, "fuzz.ir") != nil || prog.Link() != nil {
			return
		}
		sc := scene.New(prog)
		first := siteString(constprop.Analyze(context.Background(), sc))
		if second := siteString(constprop.Analyze(context.Background(), sc)); second != first {
			t.Fatalf("second run differs:\n%s\nfirst run:\n%s", second, first)
		}
	})
}
