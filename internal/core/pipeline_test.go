package core_test

import (
	"context"
	"testing"

	"flowdroid/internal/core"
	"flowdroid/internal/insecurebank"
)

// TestPassesOnCompleteRun: a single clean run executes every pass exactly
// once and reuses nothing.
func TestPassesOnCompleteRun(t *testing.T) {
	res, err := core.AnalyzeFiles(context.Background(), insecurebank.Files, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != core.Complete {
		t.Fatalf("status = %v, want Complete", res.Status)
	}
	for _, pass := range []string{"scene", "callbacks", "lifecycle", "callgraph", "icfg", "sourcesink", "taint"} {
		st, ok := res.Passes[pass]
		if !ok {
			t.Errorf("pass %q missing from Result.Passes", pass)
			continue
		}
		if st.Runs != 1 || st.Hits != 0 {
			t.Errorf("pass %q: runs %d hits %d, want 1/0 on a single attempt", pass, st.Runs, st.Hits)
		}
	}
}

// TestDegradeLadderReusesUpstreamArtifacts: with CHA selected up front the
// ladder consists only of access-path-length rungs, which must re-run the
// taint pass alone — every upstream artifact (callbacks, dummy main, call
// graph, ICFG, source/sink manager) records a cache hit per retry.
func TestDegradeLadderReusesUpstreamArtifacts(t *testing.T) {
	app := stressApp(t)
	opts := core.DefaultOptions()
	opts.UseCHA = true
	opts.Taint.MaxPropagations = 500
	opts.Degrade = true
	res, err := core.AnalyzeFiles(context.Background(), app.Files, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Degraded) == 0 {
		t.Fatal("budget-exhausted run recorded no downgrade rungs")
	}
	if res.Degraded[0] != "ap-length=3" {
		t.Errorf("first rung = %q, want ap-length=3 (CHA already selected)", res.Degraded[0])
	}
	attempts := 1 + len(res.Degraded)
	if got := res.Passes["taint"]; got.Runs != attempts || got.Hits != 0 {
		t.Errorf("taint: runs %d hits %d, want %d/0 (taint is the retried pass)", got.Runs, got.Hits, attempts)
	}
	for _, pass := range []string{"scene", "callbacks", "lifecycle", "callgraph", "icfg", "sourcesink"} {
		st := res.Passes[pass]
		if st.Runs != 1 {
			t.Errorf("pass %q ran %d times across %d attempts, want 1 (ap-length rungs must not invalidate it)",
				pass, st.Runs, attempts)
		}
		if st.Hits != attempts-1 {
			t.Errorf("pass %q: %d hits across %d attempts, want %d", pass, st.Hits, attempts, attempts-1)
		}
	}
}

// TestChaRungInvalidatesCallGraphAndICFGOnly: starting from the points-to
// call graph, the cha-callgraph rung must rebuild the call graph and the
// ICFG stitched from it, but keep callbacks, dummy main and the
// source/sink manager memoized.
func TestChaRungInvalidatesCallGraphAndICFGOnly(t *testing.T) {
	app := stressApp(t)
	opts := core.DefaultOptions()
	opts.Taint.MaxPropagations = 500
	opts.Degrade = true
	res, err := core.AnalyzeFiles(context.Background(), app.Files, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Degraded) == 0 || res.Degraded[0] != "cha-callgraph" {
		t.Fatalf("degraded rungs = %v, want cha-callgraph first", res.Degraded)
	}
	attempts := 1 + len(res.Degraded)
	// One build under "pta", one under "cha"; further (ap-length) rungs
	// reuse the CHA artifact.
	for _, pass := range []string{"callgraph", "icfg"} {
		st := res.Passes[pass]
		if st.Runs != 2 || st.Hits != attempts-2 {
			t.Errorf("pass %q: runs %d hits %d across %d attempts, want 2/%d (pta build, cha rebuild, then reuse)",
				pass, st.Runs, st.Hits, attempts, attempts-2)
		}
	}
	for _, pass := range []string{"scene", "callbacks", "lifecycle", "sourcesink"} {
		st := res.Passes[pass]
		if st.Runs != 1 || st.Hits != attempts-1 {
			t.Errorf("pass %q: runs %d hits %d across %d attempts, want 1/%d",
				pass, st.Runs, st.Hits, attempts, attempts-1)
		}
	}
	if got := res.Passes["taint"]; got.Runs != attempts {
		t.Errorf("taint ran %d times across %d attempts, want one run per attempt", got.Runs, attempts)
	}
}
