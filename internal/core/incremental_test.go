package core_test

import (
	"bytes"
	"context"
	"testing"

	"flowdroid/internal/appgen"
	"flowdroid/internal/core"
	"flowdroid/internal/summarystore"
)

// storeRun aggregates one corpus pass: the summary-store counters and
// the concatenated canonical reports.
type storeRun struct {
	core.Counters
	reports []byte
}

// analyzeWithStore analyzes every file set against the store in dir
// ("" for no store).
func analyzeWithStore(t *testing.T, sets []map[string]string, dir string) storeRun {
	t.Helper()
	opts := core.DefaultOptions()
	opts.SummaryStore = summarystore.Open(dir)
	var run storeRun
	var reports bytes.Buffer
	for _, files := range sets {
		res, err := core.AnalyzeFiles(context.Background(), files, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != core.Complete {
			t.Fatalf("status %v", res.Status)
		}
		c := res.Counters
		run.SummaryHits += c.SummaryHits
		run.SummaryInvalidated += c.SummaryInvalidated
		run.SummariesPersisted += c.SummariesPersisted
		run.MethodsReused += c.MethodsReused
		run.MethodsExplored += c.MethodsExplored
		js, err := res.Taint.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		reports.Write(js)
	}
	run.reports = reports.Bytes()
	return run
}

// TestIncrementalUpdateStream is the summary store's end-to-end
// contract on an update stream: 8 Play apps are analyzed cold into a
// store, then each gets 2% of its methods mutated and is re-analyzed
// warm against it. The mutation seeds are fixed so some edits land in
// taint-visited methods (and invalidate their summaries) and the rest in
// dead code. At that churn the warm run must serve at least 90% of the
// analyzable methods from the store, and its reports must be
// byte-identical to a store-less run of the mutated corpus.
func TestIncrementalUpdateStream(t *testing.T) {
	apps := appgen.GenerateCorpus(appgen.Play, 8, 1)
	original := make([]map[string]string, len(apps))
	updated := make([]map[string]string, len(apps))
	for i, app := range apps {
		original[i] = app.Files
		updated[i], _ = appgen.MutateMethods(app.Files, 0.02, int64(i)+2)
	}
	dir := t.TempDir()

	cold := analyzeWithStore(t, original, dir)
	if cold.SummariesPersisted == 0 || cold.SummaryHits != 0 {
		t.Fatalf("cold run persisted %d summaries with %d hits; want some persisted and no hits",
			cold.SummariesPersisted, cold.SummaryHits)
	}

	warm := analyzeWithStore(t, updated, dir)
	t.Logf("warm run: %d methods reused, %d explored, %d hits, %d invalidated",
		warm.MethodsReused, warm.MethodsExplored, warm.SummaryHits, warm.SummaryInvalidated)
	if warm.SummaryHits == 0 {
		t.Error("warm run hit no stored summary")
	}
	if warm.SummaryInvalidated == 0 {
		t.Error("the update stream invalidated no summary: every mutation landed in dead code")
	}
	if reuse := warm.SummaryReuseRate(); reuse < 0.9 {
		t.Errorf("summary reuse %.3f below the 0.9 floor", reuse)
	}
	if fresh := analyzeWithStore(t, updated, ""); !bytes.Equal(warm.reports, fresh.reports) {
		t.Error("warm reports differ from a store-less analysis of the mutated corpus")
	}
}
