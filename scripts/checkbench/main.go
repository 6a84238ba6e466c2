// Command checkbench validates the schema of the BENCH_*.json artifacts
// the smoke benchmarks produce, so CI fails loudly when a bench stops
// persisting its trajectory (the failure mode that motivated the
// artifacts) or emits a malformed record.
//
// The artifact kind is dispatched on the "bench" field:
//
//	BenchmarkSmokeTaint                       → parallel-solver speedup report (with allocs/op ratchet)
//	BenchmarkSmokeTaint/StringCarriers        → string-carrier on/off comparison report
//	BenchmarkSmokeMetrics                     → observability-overhead report
//	BenchmarkQueryTaint                       → demand-driven query savings report
//	BenchmarkIncrementalTaint                 → warm re-analysis (summary store) report
//	BenchmarkReflectionTaint                  → reflection-resolution recovery report
//
// Usage: go run ./scripts/checkbench BENCH_taint.json [BENCH_strings.json BENCH_metrics.json BENCH_query.json BENCH_incr.json BENCH_reflect.json ...]
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

type run struct {
	Workers      int     `json:"workers"`
	WallMS       float64 `json:"wall_ms"`
	Propagations int     `json:"propagations"`
	Leaks        int     `json:"leaks"`
	Allocs       uint64  `json:"allocs"`
}

type taintReport struct {
	Bench      string  `json:"bench"`
	Profile    string  `json:"profile"`
	Apps       int     `json:"apps"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	Runs       []run   `json:"runs"`
	Speedup    float64 `json:"speedup"`
	Note       string  `json:"note"`
}

type stringsMode struct {
	Carriers          bool    `json:"carriers"`
	WallMS            float64 `json:"wall_ms"`
	AliasQueries      int     `json:"alias_queries"`
	GatedAliasQueries int     `json:"gated_alias_queries"`
	Allocs            uint64  `json:"allocs"`
	Leaks             int     `json:"leaks"`
}

type stringsReport struct {
	Bench            string      `json:"bench"`
	Profile          string      `json:"profile"`
	Apps             int         `json:"apps"`
	Workers          int         `json:"workers"`
	GOMAXPROCS       int         `json:"gomaxprocs"`
	NumCPU           int         `json:"num_cpu"`
	On               stringsMode `json:"on"`
	Off              stringsMode `json:"off"`
	AliasReduction   float64     `json:"alias_reduction"`
	AllocReduction   float64     `json:"alloc_reduction"`
	ReportsIdentical bool        `json:"reports_identical"`
	Note             string      `json:"note"`
}

type queryRun struct {
	WallMS            float64 `json:"wall_ms"`
	Propagations      int     `json:"propagations"`
	Leaks             int     `json:"leaks"`
	ConeMethods       int     `json:"cone_methods"`
	SkippedComponents int     `json:"skipped_components"`
}

type queryReport struct {
	Bench                string   `json:"bench"`
	Profile              string   `json:"profile"`
	Apps                 int      `json:"apps"`
	GOMAXPROCS           int      `json:"gomaxprocs"`
	NumCPU               int      `json:"num_cpu"`
	Query                []string `json:"query"`
	Whole                queryRun `json:"whole"`
	QueryRun             queryRun `json:"query_run"`
	PropagationReduction float64  `json:"propagation_reduction"`
	Note                 string   `json:"note"`
}

type incrRun struct {
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

type incrReport struct {
	Bench            string  `json:"bench"`
	Profile          string  `json:"profile"`
	Apps             int     `json:"apps"`
	MutatedFraction  float64 `json:"mutated_fraction"`
	MutatedMethods   int     `json:"mutated_methods"`
	GOMAXPROCS       int     `json:"gomaxprocs"`
	NumCPU           int     `json:"num_cpu"`
	Cold             incrRun `json:"cold"`
	Warm             incrRun `json:"warm"`
	ReuseRate        float64 `json:"reuse_rate"`
	ReportsIdentical bool    `json:"reports_identical"`
	Note             string  `json:"note"`
}

type reflectMode struct {
	Reflection      bool    `json:"reflection"`
	WallMS          float64 `json:"wall_ms"`
	Leaks           int     `json:"leaks"`
	ResolvedSites   int     `json:"resolved_sites"`
	UnresolvedSites int     `json:"unresolved_sites"`
}

type reflectReport struct {
	Bench           string      `json:"bench"`
	Profile         string      `json:"profile"`
	Apps            int         `json:"apps"`
	GOMAXPROCS      int         `json:"gomaxprocs"`
	NumCPU          int         `json:"num_cpu"`
	InjectedLeaks   int         `json:"injected_leaks"`
	ReflectiveLeaks int         `json:"reflective_leaks"`
	DynamicChains   int         `json:"dynamic_chains"`
	On              reflectMode `json:"on"`
	Off             reflectMode `json:"off"`
	RecoveredLeaks  int         `json:"recovered_leaks"`
	OffUnchanged    bool        `json:"off_reports_unchanged"`
	Note            string      `json:"note"`
}

type metricsReport struct {
	Bench             string  `json:"bench"`
	Profile           string  `json:"profile"`
	Apps              int     `json:"apps"`
	GOMAXPROCS        int     `json:"gomaxprocs"`
	NumCPU            int     `json:"num_cpu"`
	OffWallMS         float64 `json:"off_wall_ms"`
	OnWallMS          float64 `json:"on_wall_ms"`
	OverheadRatio     float64 `json:"overhead_ratio"`
	DeterministicKeys int     `json:"deterministic_keys"`
	TraceEvents       int     `json:"trace_events"`
	Note              string  `json:"note"`
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "checkbench: "+format+"\n", args...)
	os.Exit(1)
}

// strict decodes data into v rejecting unknown fields, so schema drift
// between the bench and this checker is an error, not a silent skip.
func strict(path string, data []byte, v any) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		fail("%s: %v", path, err)
	}
}

func main() {
	if len(os.Args) < 2 {
		fail("usage: checkbench <BENCH_*.json> ...")
	}
	for _, path := range os.Args[1:] {
		check(path)
	}
}

func check(path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		fail("%v", err)
	}
	var kind struct {
		Bench string `json:"bench"`
	}
	if err := json.Unmarshal(data, &kind); err != nil {
		fail("%s: %v", path, err)
	}
	switch kind.Bench {
	case "BenchmarkSmokeTaint":
		checkTaint(path, data)
	case "BenchmarkSmokeTaint/StringCarriers":
		checkStrings(path, data)
	case "BenchmarkSmokeMetrics":
		checkMetrics(path, data)
	case "BenchmarkQueryTaint":
		checkQuery(path, data)
	case "BenchmarkIncrementalTaint":
		checkIncr(path, data)
	case "BenchmarkReflectionTaint":
		checkReflect(path, data)
	default:
		fail("%s: unknown bench %q", path, kind.Bench)
	}
}

// taintAllocsCeiling ratchets the pipeline's memory churn: the sequential
// bench-corpus pass measures ~419k heap allocations after the solver
// allocation diet (interned singleton out-slices, binary access-path
// interner keys, pre-sized worklists) and the front end's (tokens as
// source spans, reused parser scratch buffers). This is that count plus
// 15%; a run past it means a diet regressed. Raise it only with a
// measured justification.
const taintAllocsCeiling = 482_000

func checkTaint(path string, data []byte) {
	var r taintReport
	strict(path, data, &r)
	if r.Profile == "" {
		fail("%s: profile missing", path)
	}
	if r.Apps <= 0 || r.GOMAXPROCS <= 0 || r.NumCPU <= 0 {
		fail("%s: apps/gomaxprocs/num_cpu must be positive (got %d/%d/%d)", path, r.Apps, r.GOMAXPROCS, r.NumCPU)
	}
	if len(r.Runs) < 2 {
		fail("%s: want at least a sequential and a parallel run, got %d", path, len(r.Runs))
	}
	workers := map[int]bool{}
	for i, ru := range r.Runs {
		if ru.Workers <= 0 || workers[ru.Workers] {
			fail("%s: run %d: invalid or duplicate worker count %d", path, i, ru.Workers)
		}
		workers[ru.Workers] = true
		if ru.WallMS <= 0 {
			fail("%s: run %d (workers=%d): wall_ms must be positive", path, i, ru.Workers)
		}
		if ru.Propagations <= 0 {
			fail("%s: run %d (workers=%d): propagations must be positive", path, i, ru.Workers)
		}
		if ru.Allocs == 0 {
			fail("%s: run %d (workers=%d): allocs missing or zero — the bench stopped recording memory churn", path, i, ru.Workers)
		}
		if ru.Allocs > taintAllocsCeiling {
			fail("%s: run %d (workers=%d): %d allocs exceeds the %d ratchet — the solver allocation diet regressed",
				path, i, ru.Workers, ru.Allocs, taintAllocsCeiling)
		}
		if ru.Propagations != r.Runs[0].Propagations || ru.Leaks != r.Runs[0].Leaks {
			fail("%s: run %d (workers=%d): propagations/leaks differ across worker counts (%d/%d vs %d/%d) — the solver lost its schedule-independence",
				path, i, ru.Workers, ru.Propagations, ru.Leaks, r.Runs[0].Propagations, r.Runs[0].Leaks)
		}
	}
	if !workers[1] {
		fail("%s: no sequential (workers=1) baseline run", path)
	}
	if r.Speedup <= 0 {
		fail("%s: speedup must be positive, got %v", path, r.Speedup)
	}
	if r.Speedup < 1.5 && r.Note == "" {
		fail("%s: speedup %.2fx is below 1.5x and no note documents why", path, r.Speedup)
	}
	fmt.Printf("checkbench: %s OK (%d runs, speedup %.2fx)\n", path, len(r.Runs), r.Speedup)
}

func checkStrings(path string, data []byte) {
	var r stringsReport
	strict(path, data, &r)
	if r.Profile == "" {
		fail("%s: profile missing", path)
	}
	if r.Apps <= 0 || r.Workers <= 0 || r.GOMAXPROCS <= 0 || r.NumCPU <= 0 {
		fail("%s: apps/workers/gomaxprocs/num_cpu must be positive (got %d/%d/%d/%d)",
			path, r.Apps, r.Workers, r.GOMAXPROCS, r.NumCPU)
	}
	if !r.On.Carriers || r.Off.Carriers {
		fail("%s: mode flags inverted (on.carriers=%v, off.carriers=%v)", path, r.On.Carriers, r.Off.Carriers)
	}
	if r.On.WallMS <= 0 || r.Off.WallMS <= 0 {
		fail("%s: wall times must be positive (got %v/%v)", path, r.On.WallMS, r.Off.WallMS)
	}
	if r.On.Allocs == 0 || r.Off.Allocs == 0 {
		fail("%s: allocs missing — the bench stopped recording memory churn", path)
	}
	// The gate's reason to exist: with carriers on it must prove and skip
	// real receiver alias searches, strictly reducing backward queries.
	if r.On.GatedAliasQueries <= 0 {
		fail("%s: carriers-on pass gated no alias searches — the fast path never fired", path)
	}
	if r.Off.GatedAliasQueries != 0 {
		fail("%s: carriers-off pass reports %d gated queries, want 0", path, r.Off.GatedAliasQueries)
	}
	if r.Off.AliasQueries <= 0 {
		fail("%s: carriers-off pass ran no alias searches — the corpus stopped exercising builders", path)
	}
	if r.On.AliasQueries >= r.Off.AliasQueries {
		fail("%s: carriers-on alias queries (%d) not strictly below carriers-off (%d)",
			path, r.On.AliasQueries, r.Off.AliasQueries)
	}
	if r.AliasReduction <= 0 || r.AliasReduction > 1 {
		fail("%s: alias_reduction = %v, want in (0,1]", path, r.AliasReduction)
	}
	// The fast path must never cost memory: allow 2% cross-pass noise,
	// fail on anything beyond it. (The diet's absolute win is ratcheted
	// separately via taintAllocsCeiling.)
	if float64(r.On.Allocs) > float64(r.Off.Allocs)*1.02 {
		fail("%s: carriers-on allocs (%d) exceed carriers-off (%d) by more than 2%%",
			path, r.On.Allocs, r.Off.Allocs)
	}
	// The precision contract: same leaks, byte-identical reports.
	if r.On.Leaks != r.Off.Leaks {
		fail("%s: leak counts differ across modes (%d vs %d)", path, r.On.Leaks, r.Off.Leaks)
	}
	if !r.ReportsIdentical {
		fail("%s: canonical reports were not byte-identical across carrier modes", path)
	}
	if r.Note == "" {
		fail("%s: note missing", path)
	}
	fmt.Printf("checkbench: %s OK (%d/%d alias searches gated, alloc delta %+.2f%%, reports identical)\n",
		path, r.On.GatedAliasQueries, r.Off.AliasQueries, -100*r.AllocReduction)
}

func checkQuery(path string, data []byte) {
	var r queryReport
	strict(path, data, &r)
	if r.Profile == "" {
		fail("%s: profile missing", path)
	}
	if r.Apps <= 0 || r.GOMAXPROCS <= 0 || r.NumCPU <= 0 {
		fail("%s: apps/gomaxprocs/num_cpu must be positive (got %d/%d/%d)", path, r.Apps, r.GOMAXPROCS, r.NumCPU)
	}
	if len(r.Query) == 0 {
		fail("%s: query selector list is empty", path)
	}
	if r.Whole.WallMS <= 0 || r.QueryRun.WallMS <= 0 {
		fail("%s: wall times must be positive (got %v/%v)", path, r.Whole.WallMS, r.QueryRun.WallMS)
	}
	if r.Whole.Propagations <= 0 {
		fail("%s: whole-program propagations must be positive", path)
	}
	// The demand-driven mode's reason to exist: a single-sink query must
	// do strictly less solver work than the whole-program run.
	if r.QueryRun.Propagations >= r.Whole.Propagations {
		fail("%s: query propagations (%d) not strictly below whole-program (%d) — the cone pruned nothing",
			path, r.QueryRun.Propagations, r.Whole.Propagations)
	}
	if r.QueryRun.ConeMethods <= 0 {
		fail("%s: cone_methods must be positive in query mode", path)
	}
	if r.Whole.ConeMethods != 0 || r.Whole.SkippedComponents != 0 {
		fail("%s: whole-program run reports cone counters (%d/%d), want zero",
			path, r.Whole.ConeMethods, r.Whole.SkippedComponents)
	}
	if r.PropagationReduction <= 0 || r.PropagationReduction >= 1 {
		fail("%s: propagation_reduction = %v, want in (0,1)", path, r.PropagationReduction)
	}
	if r.Note == "" {
		fail("%s: note missing", path)
	}
	fmt.Printf("checkbench: %s OK (query %v saved %.0f%% propagations, %d components skipped)\n",
		path, r.Query, 100*r.PropagationReduction, r.QueryRun.SkippedComponents)
}

func checkIncr(path string, data []byte) {
	var r incrReport
	strict(path, data, &r)
	if r.Profile == "" {
		fail("%s: profile missing", path)
	}
	if r.Apps <= 0 || r.GOMAXPROCS <= 0 || r.NumCPU <= 0 {
		fail("%s: apps/gomaxprocs/num_cpu must be positive (got %d/%d/%d)", path, r.Apps, r.GOMAXPROCS, r.NumCPU)
	}
	if r.MutatedFraction <= 0 || r.MutatedFraction >= 1 {
		fail("%s: mutated_fraction = %v, want in (0,1)", path, r.MutatedFraction)
	}
	if r.MutatedMethods <= 0 {
		fail("%s: mutated_methods must be positive — the update stream changed nothing", path)
	}
	if r.Cold.WallMS <= 0 || r.Warm.WallMS <= 0 {
		fail("%s: wall times must be positive (got %v/%v)", path, r.Cold.WallMS, r.Warm.WallMS)
	}
	if r.Cold.SummaryHits != 0 || r.Cold.Persisted <= 0 {
		fail("%s: cold run must persist without hits (hits=%d, persisted=%d)", path, r.Cold.SummaryHits, r.Cold.Persisted)
	}
	if r.Warm.SummaryHits <= 0 {
		fail("%s: warm run hit no stored summaries", path)
	}
	if r.Warm.Invalidated <= 0 {
		fail("%s: warm run invalidated nothing — the update stream never touched live code", path)
	}
	// The store's reason to exist: at 2% churn the warm run must reuse at
	// least 90% of the analyzable methods.
	if r.ReuseRate < 0.9 {
		fail("%s: reuse_rate %.3f below the 0.9 floor", path, r.ReuseRate)
	}
	if r.ReuseRate > 1 {
		fail("%s: reuse_rate %v exceeds 1", path, r.ReuseRate)
	}
	// The store's safety contract: warm results indistinguishable from a
	// cold re-analysis of the updated corpus.
	if !r.ReportsIdentical {
		fail("%s: warm reports were not byte-identical to the cold run", path)
	}
	if r.Note == "" {
		fail("%s: note missing", path)
	}
	fmt.Printf("checkbench: %s OK (reuse %.1f%%, %d hits, %d invalidated, reports identical)\n",
		path, 100*r.ReuseRate, r.Warm.SummaryHits, r.Warm.Invalidated)
}

func checkReflect(path string, data []byte) {
	var r reflectReport
	strict(path, data, &r)
	if r.Profile == "" {
		fail("%s: profile missing", path)
	}
	if r.Apps <= 0 || r.GOMAXPROCS <= 0 || r.NumCPU <= 0 {
		fail("%s: apps/gomaxprocs/num_cpu must be positive (got %d/%d/%d)", path, r.Apps, r.GOMAXPROCS, r.NumCPU)
	}
	if !r.On.Reflection || r.Off.Reflection {
		fail("%s: mode flags inverted (on.reflection=%v, off.reflection=%v)", path, r.On.Reflection, r.Off.Reflection)
	}
	if r.On.WallMS <= 0 || r.Off.WallMS <= 0 {
		fail("%s: wall times must be positive (got %v/%v)", path, r.On.WallMS, r.Off.WallMS)
	}
	// The pass's reason to exist: the corpus must contain reflective
	// leaks and on-mode must recover every one of them.
	if r.ReflectiveLeaks <= 0 {
		fail("%s: corpus injected no reflective leaks — the bench stopped exercising resolution", path)
	}
	if r.On.Leaks != r.InjectedLeaks {
		fail("%s: reflection-on found %d leaks, injected %d", path, r.On.Leaks, r.InjectedLeaks)
	}
	if r.Off.Leaks != r.InjectedLeaks-r.ReflectiveLeaks {
		fail("%s: reflection-off found %d leaks, want exactly the %d non-reflective ones",
			path, r.Off.Leaks, r.InjectedLeaks-r.ReflectiveLeaks)
	}
	if r.RecoveredLeaks != r.ReflectiveLeaks {
		fail("%s: recovered_leaks (%d) != reflective_leaks (%d)", path, r.RecoveredLeaks, r.ReflectiveLeaks)
	}
	if r.On.ResolvedSites <= 0 {
		fail("%s: reflection-on resolved no sites", path)
	}
	// The soundness contract: genuinely dynamic chains must be present
	// and accounted for, not silently dropped.
	if r.DynamicChains <= 0 {
		fail("%s: corpus has no dynamic chains — the soundness-report path went unexercised", path)
	}
	if r.On.UnresolvedSites <= 0 {
		fail("%s: dynamic chains present but no unresolved sites reported", path)
	}
	// Off-mode must be the pre-reflection analyzer exactly: no counters,
	// and byte-identical reports wherever there is no reflective surface.
	if r.Off.ResolvedSites != 0 || r.Off.UnresolvedSites != 0 {
		fail("%s: reflection-off reports resolution counters (%d/%d), want zero",
			path, r.Off.ResolvedSites, r.Off.UnresolvedSites)
	}
	if !r.OffUnchanged {
		fail("%s: reflection-free apps did not report byte-identically across modes", path)
	}
	if r.Note == "" {
		fail("%s: note missing", path)
	}
	fmt.Printf("checkbench: %s OK (recovered %d/%d leaks, %d sites resolved, %d left to the soundness report)\n",
		path, r.RecoveredLeaks, r.InjectedLeaks, r.On.ResolvedSites, r.On.UnresolvedSites)
}

func checkMetrics(path string, data []byte) {
	var r metricsReport
	strict(path, data, &r)
	if r.Profile == "" {
		fail("%s: profile missing", path)
	}
	if r.Apps <= 0 || r.GOMAXPROCS <= 0 || r.NumCPU <= 0 {
		fail("%s: apps/gomaxprocs/num_cpu must be positive (got %d/%d/%d)", path, r.Apps, r.GOMAXPROCS, r.NumCPU)
	}
	if r.OffWallMS <= 0 || r.OnWallMS <= 0 {
		fail("%s: off/on wall times must be positive (got %v/%v)", path, r.OffWallMS, r.OnWallMS)
	}
	if r.OverheadRatio <= 0 {
		fail("%s: overhead_ratio must be positive, got %v", path, r.OverheadRatio)
	}
	if r.DeterministicKeys <= 0 {
		fail("%s: instrumented run produced no deterministic counters — the wiring came apart", path)
	}
	if r.TraceEvents <= 0 || r.TraceEvents%2 != 0 {
		fail("%s: trace_events = %d, want a positive even count (B/E pairs)", path, r.TraceEvents)
	}
	if r.Note == "" {
		fail("%s: note missing — the ratio needs a host interpretation", path)
	}
	fmt.Printf("checkbench: %s OK (overhead %.2fx, %d deterministic counters, %d trace events)\n",
		path, r.OverheadRatio, r.DeterministicKeys, r.TraceEvents)
}
