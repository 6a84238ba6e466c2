package taint_test

import (
	"context"
	"testing"

	"flowdroid/internal/appgen"
	"flowdroid/internal/cfg"
	"flowdroid/internal/core"
	"flowdroid/internal/ir"
	"flowdroid/internal/scene"
	"flowdroid/internal/sourcesink"
	"flowdroid/internal/taint"
)

// solverInputs runs the pipeline up to the solve on app 0 of the seed-7
// corpus of the enlarged stress profile the repository benchmark's
// benchtaint workload analyzes (40 helpers, 10 noise methods of 20-30
// statements), and returns the ICFG, source/sink manager and entry point
// the taint solver consumes.
func solverInputs(tb testing.TB) (*cfg.ICFG, *sourcesink.Manager, *ir.Method) {
	p := appgen.Stress
	p.Name = "benchtaint"
	p.Helpers = appgen.MinMax(40, 40)
	p.NoiseMethods = appgen.MinMax(10, 10)
	p.NoiseStmts = appgen.MinMax(20, 30)
	app := appgen.GenerateCorpus(p, 1, 7)[0]
	res, err := core.AnalyzeFiles(context.Background(), app.Files, core.DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	sc := scene.New(res.App.Program)
	mgr := sourcesink.Default(sc)
	mgr.AttachApp(res.App)
	return cfg.NewICFG(sc, res.CallGraph), mgr, res.EntryPoint
}

// Allocation ceilings for one sequential solve of the solverInputs app:
// the measured counts (14,490 with string carriers on, 14,597 off) plus
// 15%. On one worker the counts vary by a few allocations between runs,
// so a change that makes the solver allocate more per path edge or per
// alias search fails here.
const (
	solveAllocBudgetCarriers   = 16_660
	solveAllocBudgetNoCarriers = 16_790
)

// TestSolveAllocBudget caps the taint solver's allocations in both
// string-carrier modes and holds the carrier fast path to its purpose on
// a real app: with carriers on it gates receiver alias searches and runs
// strictly fewer of them, with carriers off it gates none, and gating
// never costs memory. Report identity across the two modes is the
// carrier equivalence tests' job.
func TestSolveAllocBudget(t *testing.T) {
	icfg, mgr, entry := solverInputs(t)
	var stats [2]taint.Stats
	var allocs [2]float64
	for i, carriers := range []bool{true, false} {
		conf := core.DefaultOptions().Taint
		conf.Workers = 1
		conf.StringCarriers = carriers
		solve := func() { stats[i] = taint.Analyze(context.Background(), icfg, mgr, conf, entry).Stats }
		allocs[i] = testing.AllocsPerRun(3, solve)
		t.Logf("carriers=%t: %.0f allocations, %d alias queries, %d gated",
			carriers, allocs[i], stats[i].AliasQueries, stats[i].GatedAliasQueries)
	}
	on, off := stats[0], stats[1]
	if allocs[0] > solveAllocBudgetCarriers {
		t.Errorf("carriers on: solve made %.0f allocations, budget %d", allocs[0], solveAllocBudgetCarriers)
	}
	if allocs[1] > solveAllocBudgetNoCarriers {
		t.Errorf("carriers off: solve made %.0f allocations, budget %d", allocs[1], solveAllocBudgetNoCarriers)
	}
	if on.GatedAliasQueries == 0 {
		t.Error("carriers on gated no alias search: the fast path never fired")
	}
	if off.GatedAliasQueries != 0 {
		t.Errorf("carriers off gated %d alias searches, want 0", off.GatedAliasQueries)
	}
	if off.AliasQueries == 0 {
		t.Error("carriers off ran no alias search: the app stopped exercising string builders")
	}
	if on.AliasQueries >= off.AliasQueries {
		t.Errorf("carriers on ran %d alias queries, not strictly below the %d with carriers off",
			on.AliasQueries, off.AliasQueries)
	}
	if allocs[0] > allocs[1]*1.02 {
		t.Errorf("carriers on made %.0f allocations, more than 2%% above the %.0f with carriers off",
			allocs[0], allocs[1])
	}
}
