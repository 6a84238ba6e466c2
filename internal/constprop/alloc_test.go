package constprop_test

import (
	"context"
	"math/rand"
	"testing"

	"flowdroid/internal/apk"
	"flowdroid/internal/appgen"
	"flowdroid/internal/constprop"
	"flowdroid/internal/scene"
)

// reflectionScene is one fixed app of the Reflection profile the
// repository benchmark's reflection workload analyzes, loaded and
// wrapped in a scene.
func reflectionScene(tb testing.TB) *scene.Scene {
	app, err := apk.LoadFiles(appgen.Generate(rand.New(rand.NewSource(1)), appgen.Reflection, 0).Files)
	if err != nil {
		tb.Fatal(err)
	}
	return scene.New(app.Program)
}

// analyzeAllocBudget is the allocation ceiling for analyzing
// reflectionScene: the measured 417 plus 15%. Allocation counts are
// deterministic, so a change that makes the fixpoint copy states again
// fails here.
const analyzeAllocBudget = 480

func TestAnalyzeAllocBudget(t *testing.T) {
	sc := reflectionScene(t)
	if res := constprop.Analyze(context.Background(), sc); len(res.Sites) == 0 {
		t.Fatal("the fixed Reflection app has no reflective site; the budget would not measure the fixpoint")
	}
	got := testing.AllocsPerRun(5, func() { constprop.Analyze(context.Background(), sc) })
	t.Logf("analysis of the Reflection app: %.0f allocations", got)
	if got > analyzeAllocBudget {
		t.Errorf("analysis of the Reflection app made %.0f allocations, budget %d", got, analyzeAllocBudget)
	}
}

func BenchmarkAnalyze(b *testing.B) {
	sc := reflectionScene(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		constprop.Analyze(context.Background(), sc)
	}
}
