package irtext_test

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"flowdroid/internal/appgen"
	"flowdroid/internal/framework"
	"flowdroid/internal/irtext"
)

// irFiles returns the .ir files of an app package in name order.
func irFiles(files map[string]string) (names, srcs []string) {
	for name := range files {
		if strings.HasSuffix(name, ".ir") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		srcs = append(srcs, files[name])
	}
	return names, srcs
}

// benchTaintApp is one fixed app of the enlarged stress profile the
// repository benchmark's benchtaint workload analyzes (40 helpers, 10
// noise methods of 20-30 statements): the largest .ir sources the
// repository generates. It returns the app's .ir files in name order.
func benchTaintApp() (names, srcs []string) {
	p := appgen.Stress
	p.Helpers = appgen.MinMax(40, 40)
	p.NoiseMethods = appgen.MinMax(10, 10)
	p.NoiseStmts = appgen.MinMax(20, 30)
	return irFiles(appgen.Generate(rand.New(rand.NewSource(1)), p, 0).Files)
}

func parseApp(tb testing.TB, names, srcs []string) {
	prog := framework.NewProgram()
	for i, src := range srcs {
		if err := irtext.ParseInto(prog, src, names[i]); err != nil {
			tb.Fatal(err)
		}
	}
}

// parseAllocBudget is the allocation ceiling for parsing benchTaintApp:
// the measured 74,546 plus 15%. Allocation counts are deterministic, so
// a change that makes the parser allocate more per token or per
// statement fails here.
const parseAllocBudget = 85_700

func TestParseAllocBudget(t *testing.T) {
	names, srcs := benchTaintApp()
	got := testing.AllocsPerRun(5, func() { parseApp(t, names, srcs) })
	t.Logf("parse of the benchtaint app: %.0f allocations", got)
	if got > parseAllocBudget {
		t.Errorf("parse of the benchtaint app made %.0f allocations, budget %d", got, parseAllocBudget)
	}
}

func BenchmarkParse(b *testing.B) {
	names, srcs := benchTaintApp()
	n := 0
	for _, src := range srcs {
		n += len(src)
	}
	b.SetBytes(int64(n))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		parseApp(b, names, srcs)
	}
}
