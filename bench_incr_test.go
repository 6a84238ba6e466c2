package flowdroid_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"flowdroid/internal/appgen"
	"flowdroid/internal/core"
	"flowdroid/internal/summarystore"
)

// BenchmarkIncrementalTaint quantifies warm re-analysis over the
// persistent summary store: a corpus is analyzed cold into a store, then
// every app receives a simulated update (2% of methods mutated) and is
// re-analyzed warm against the same store. The contract is asserted
// in-line: the warm reports must be byte-identical to a fresh cold run
// of the updated corpus, and at least 90% of the analyzable methods must
// come out of the store instead of being re-explored. The result is
// persisted as BENCH_incr.json (schema-checked by scripts/checkbench in
// ci.sh).

const benchIncrApps = 8

// benchIncrFraction is the simulated update's churn: 2% of methods per
// app get a body change.
const benchIncrFraction = 0.02

type benchIncrRun struct {
	WallMS          float64 `json:"wall_ms"`
	Propagations    int     `json:"propagations"`
	Leaks           int     `json:"leaks"`
	SummaryHits     int     `json:"summary_hits"`
	SummaryMisses   int     `json:"summary_misses"`
	Invalidated     int     `json:"invalidated"`
	MethodsReused   int     `json:"methods_reused"`
	MethodsExplored int     `json:"methods_explored"`
	Persisted       int     `json:"persisted"`
}

type benchIncrReport struct {
	Bench           string       `json:"bench"`
	Profile         string       `json:"profile"`
	Apps            int          `json:"apps"`
	MutatedFraction float64      `json:"mutated_fraction"`
	MutatedMethods  int          `json:"mutated_methods"`
	GOMAXPROCS      int          `json:"gomaxprocs"`
	NumCPU          int          `json:"num_cpu"`
	Cold            benchIncrRun `json:"cold"`
	Warm            benchIncrRun `json:"warm"`
	// ReuseRate is warm methods_reused / (methods_reused +
	// methods_explored): the fraction of analyzable methods served from
	// the store after the update.
	ReuseRate        float64 `json:"reuse_rate"`
	ReportsIdentical bool    `json:"reports_identical"`
	Note             string  `json:"note"`
}

func BenchmarkIncrementalTaint(b *testing.B) {
	apps := appgen.GenerateCorpus(appgen.Play, benchIncrApps, 1)

	// updated is the post-update corpus: every app with ~2% of its
	// methods mutated (a benign fresh-local assignment — data flow, and
	// therefore the leak report, is unchanged; the mutated methods' and
	// their transitive callers' content hashes are not).
	type upd struct {
		name  string
		files map[string]string
	}
	// The mutation seeds are fixed so the deterministic stream touches
	// both live and dead methods: some updates invalidate stored
	// summaries (their hash cones include taint-visited methods), the
	// rest land in unreachable noise code and cost nothing.
	updated := make([]upd, len(apps))
	mutatedMethods := 0
	for i, app := range apps {
		files, n := appgen.MutateMethods(app.Files, benchIncrFraction, int64(i)+2)
		updated[i] = upd{name: app.Name, files: files}
		mutatedMethods += n
	}
	if mutatedMethods == 0 {
		b.Fatal("mutation produced no changed methods")
	}

	// analyzeAll runs a corpus of file sets, optionally against a summary
	// store, returning aggregate counters and the concatenated canonical
	// reports.
	analyzeAll := func(sets []upd, summaryDir string) (benchIncrRun, []byte) {
		var agg benchIncrRun
		var reports bytes.Buffer
		opts := core.DefaultOptions()
		opts.SummaryStore = summarystore.Open(summaryDir)
		start := time.Now()
		for _, app := range sets {
			res, err := core.AnalyzeFiles(context.Background(), app.files, opts)
			if err != nil {
				b.Fatal(err)
			}
			if res.Status != core.Complete {
				b.Fatalf("app %s status %v", app.name, res.Status)
			}
			agg.Propagations += res.Counters.Propagations
			agg.SummaryHits += res.Counters.SummaryHits
			agg.SummaryMisses += res.Counters.SummaryMisses
			agg.Invalidated += res.Counters.SummaryInvalidated
			agg.MethodsReused += res.Counters.MethodsReused
			agg.MethodsExplored += res.Counters.MethodsExplored
			agg.Persisted += res.Counters.SummariesPersisted
			agg.Leaks += len(res.Taint.DistinctSourceSinkPairs())
			js, err := res.Taint.CanonicalJSON()
			if err != nil {
				b.Fatal(err)
			}
			reports.Write(js)
		}
		agg.WallMS = float64(time.Since(start).Microseconds()) / 1000
		return agg, reports.Bytes()
	}

	asUpd := func(apps []appgen.App) []upd {
		out := make([]upd, len(apps))
		for i, app := range apps {
			out[i] = upd{name: app.Name, files: app.Files}
		}
		return out
	}

	var cold, warm benchIncrRun
	var reuse float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dir := b.TempDir() // fresh store per iteration: cold must stay cold

		// Cold run of the original corpus populates the store.
		var coldRep []byte
		cold, coldRep = analyzeAll(asUpd(apps), dir)
		if cold.Persisted == 0 {
			b.Fatal("cold run persisted no summaries")
		}
		_ = coldRep

		// Warm run of the updated corpus against the populated store.
		var warmRep []byte
		warm, warmRep = analyzeAll(updated, dir)
		if warm.SummaryHits == 0 {
			b.Fatal("warm run hit no stored summaries")
		}
		if warm.Invalidated == 0 {
			b.Fatal("the update stream invalidated no summaries: the mutations all landed in dead code")
		}

		// Oracle: a fresh cold run of the updated corpus with no store.
		_, baseRep := analyzeAll(updated, "")
		if !bytes.Equal(warmRep, baseRep) {
			b.Fatal("warm reports differ from the cold re-analysis of the updated corpus")
		}

		total := warm.MethodsReused + warm.MethodsExplored
		if total == 0 {
			b.Fatal("warm run analyzed no methods")
		}
		reuse = float64(warm.MethodsReused) / float64(total)
		if reuse < 0.9 {
			b.Fatalf("summary reuse %.3f below the 0.9 floor (%d reused, %d explored)",
				reuse, warm.MethodsReused, warm.MethodsExplored)
		}
	}
	b.StopTimer()

	b.ReportMetric(100*reuse, "summary-reuse%")
	b.ReportMetric(float64(warm.SummaryHits), "summary-hits")

	rep := benchIncrReport{
		Bench:            "BenchmarkIncrementalTaint",
		Profile:          appgen.Play.Name,
		Apps:             benchIncrApps,
		MutatedFraction:  benchIncrFraction,
		MutatedMethods:   mutatedMethods,
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		NumCPU:           runtime.NumCPU(),
		Cold:             cold,
		Warm:             warm,
		ReuseRate:        reuse,
		ReportsIdentical: true, // asserted above; a false run b.Fatals
		Note: fmt.Sprintf(
			"after mutating %d method(s) (%.0f%% per app) across %d apps, the warm run reused %.1f%% of analyzable methods from the store (%d hits, %d invalidated) and its reports were verified byte-identical to a cold re-analysis of the updated corpus",
			mutatedMethods, 100*benchIncrFraction, benchIncrApps, 100*reuse, warm.SummaryHits, warm.Invalidated),
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_incr.json", append(out, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}
