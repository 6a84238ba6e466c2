package core_test

import (
	"context"
	"testing"

	"flowdroid/internal/appgen"
	"flowdroid/internal/core"
)

// benchTaintProfile is the enlarged stress profile the repository
// benchmark's benchtaint workload analyzes (40 helpers, 10 noise methods
// of 20-30 statements): few large apps, so parsing and the taint solve
// dominate the per-app fixed costs.
func benchTaintProfile() appgen.Profile {
	p := appgen.Stress
	p.Name = "benchtaint"
	p.Helpers = appgen.MinMax(40, 40)
	p.NoiseMethods = appgen.MinMax(10, 10)
	p.NoiseStmts = appgen.MinMax(20, 30)
	return p
}

// pipelineAllocBudget is the allocation ceiling for analyzing the 4-app
// benchtaint corpus (seed 7) end to end on one worker, loading included.
// It was set at 419k measured plus 15% after the solver and front-end
// allocation diets; the pipeline now measures about 402k. On one worker
// the count varies by a few dozen allocations between runs, so a change
// that makes any layer allocate more per statement or per path edge
// fails here.
const pipelineAllocBudget = 482_000

func TestPipelineAllocBudget(t *testing.T) {
	apps := appgen.GenerateCorpus(benchTaintProfile(), 4, 7)
	opts := core.DefaultOptions()
	opts.Taint.Workers = 1
	analyzeAll := func() {
		for _, app := range apps {
			res, err := core.AnalyzeFiles(context.Background(), app.Files, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Status != core.Complete {
				t.Fatalf("%s: status %v", app.Name, res.Status)
			}
		}
	}
	got := testing.AllocsPerRun(1, analyzeAll)
	t.Logf("analysis of the benchtaint corpus: %.0f allocations", got)
	if got > pipelineAllocBudget {
		t.Errorf("analysis of the benchtaint corpus made %.0f allocations, budget %d", got, pipelineAllocBudget)
	}
}
