package taint

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"flowdroid/internal/cfg"
	"flowdroid/internal/ir"
	"flowdroid/internal/sourcesink"
)

// Config tunes the taint engine. The zero value is not valid; use
// DefaultConfig. The fingerprint tags leave a field out of the summary
// store's configuration key (see internal/core/fingerprint.go).
type Config struct {
	// APLength is the maximal access-path length (the paper's default is
	// 5). Shorter paths widen taints and trade precision for speed.
	APLength int
	// EnableAliasing runs the on-demand backward alias solver. Disabling
	// it (an ablation) loses heap aliases entirely.
	EnableAliasing bool
	// EnableActivation tracks activation statements for alias taints.
	// Disabling it makes aliases active immediately — the
	// flow-insensitive behaviour of Andromeda the paper improves on
	// (Listing 3 would report a false leak at the first sink).
	EnableActivation bool
	// InjectContext injects the forward path-edge context into the
	// backward solver and vice versa. Disabling it (an ablation) spawns
	// alias searches from the tautological context, producing the
	// unrealizable-path false positives of Figure 3's "naive approach".
	InjectContext bool
	// FieldSensitive keeps per-field access paths. When false (an
	// ablation mimicking coarse tools), any field store taints the whole
	// base object.
	FieldSensitive bool
	// FlowSensitive controls strong updates on locals. When false, an
	// overwritten local stays tainted.
	FlowSensitive bool
	// ArrayIndexSensitive distinguishes array elements written and read
	// at constant indices. FlowDroid does not do this (the paper treats
	// indices conservatively); the commercial-tool baselines do, which is
	// why they avoid the ArrayAccess1 false positive.
	ArrayIndexSensitive bool
	// StringCarriers enables the string-carrier fast path (TAJ-style):
	// java.lang.String / StringBuilder / StringBuffer operations get
	// compiled transfer functions at recognized call sites, and backward
	// alias searches on carrier bases are skipped where a bounded
	// backward-region scan proves the search is report-neutral. The leak
	// report is byte-identical with the flag on or off; only solver
	// effort (alias queries, allocations) changes.
	StringCarriers bool
	// Wrapper is the library shortcut table; nil disables shortcuts and
	// falls back to the native default everywhere.
	Wrapper *Wrapper
	// MaxLeaks aborts after this many distinct leaks (0 = unlimited). A
	// capped run ends with Status == LeakLimitReached so it is
	// distinguishable from an exhaustive one.
	MaxLeaks int `fingerprint:"schedule"`
	// MaxPropagations bounds the solver's novel path-edge insertions
	// (forward plus backward); duplicates the jump tables absorb are
	// free. 0 is unlimited. When the budget runs out the analysis stops
	// cleanly with Status == BudgetExhausted and the leaks found so far.
	// With Workers > 1, workers already past the abort check may each
	// record one final insertion, so Stats.Propagations can exceed the
	// budget by at most Workers-1.
	MaxPropagations int `fingerprint:"schedule"`
	// Cone, when non-nil, is the demand-driven query cone: the solver
	// prunes zero-fact exploration at its boundary (descending the zero
	// fact into a callee for which Relevant is false cannot contribute a
	// leak on a queried sink — such a call tree has no potential sources,
	// no queried sinks, and no static-field writes). Taint facts are
	// never pruned: a tainted value may pass through an irrelevant callee
	// and return. The Cone is fingerprint-neutral like the rest of the
	// taint configuration — it changes how much the solver explores,
	// never which upstream artifact it runs on.
	Cone *Cone `fingerprint:"schedule"`
	// Summaries, when non-nil, is a persistent method-summary session
	// (see internal/summarystore): the solver consults it once per
	// method context, replays stored end summaries and subtree leaks on
	// hits instead of re-exploring the subtree, and hands complete
	// records back at the end of a Completed run. The session is
	// fingerprint-scoped by its creator — every setting above that
	// changes transfer-function behaviour must be part of that scope.
	// Like the Cone it never changes the leak report, only how much of
	// it is recomputed.
	Summaries Summaries `fingerprint:"deployment"`
	// Workers is the solver worker-pool size. Values <= 1 drain the work
	// queue sequentially on the calling goroutine; higher values run that
	// many concurrent workers over the shared queue. For runs that reach
	// Status == Completed, the distinct leak set and the edge counts are
	// worker-count-independent — the exploded-supergraph closure is
	// confluent — only discovery order (and hence path witnesses) may
	// differ. A truncated run (budget, leak cap, cancellation) stops at a
	// schedule-dependent frontier, so its partial leak set and counters
	// may vary across worker counts.
	Workers int `fingerprint:"schedule"`
}

// Cone is the solver's view of the reachability-cone pass (built in
// internal/cone, wired by the pipeline): a pruning predicate plus the
// cone statistics the run reports.
type Cone struct {
	// Relevant reports whether descending the zero exploration fact into
	// the method can matter to the queried sinks.
	Relevant func(*ir.Method) bool
	// Methods is the number of methods in the sink-reaching cone.
	Methods int
	// SkippedComponents counts the components dummy-main modeling left
	// out because they were entirely outside the cone.
	SkippedComponents int
}

// DefaultConfig mirrors the paper's FlowDroid configuration.
func DefaultConfig() Config {
	return Config{
		APLength:         5,
		EnableAliasing:   true,
		EnableActivation: true,
		InjectContext:    true,
		FieldSensitive:   true,
		FlowSensitive:    true,
		StringCarriers:   true,
		Wrapper:          DefaultWrapper(),
	}
}

// Leak is one reported flow from a source to a sink.
type Leak struct {
	// Sink is the sink call statement.
	Sink ir.Stmt
	// SinkSpec is the matched sink rule.
	SinkSpec sourcesink.Sink
	// Abstraction is the tainted fact that reached the sink.
	Abstraction *Abstraction
}

// Source returns the leak's source record.
func (l *Leak) Source() *SourceRecord {
	if l.Abstraction == nil {
		return nil
	}
	return l.Abstraction.Source
}

// String renders "source --> sink" with method context.
func (l *Leak) String() string {
	src := "<unknown source>"
	if s := l.Source(); s != nil && s.Stmt != nil {
		src = fmt.Sprintf("%s in %s", s.Stmt, s.Stmt.Method())
	}
	return fmt.Sprintf("%s  -->  %s in %s", src, l.Sink, l.Sink.Method())
}

// Path returns the reconstructed statement path from source to sink.
func (l *Leak) Path() []ir.Stmt {
	path := l.Abstraction.Path()
	if len(path) == 0 || path[len(path)-1] != l.Sink {
		path = append(path, l.Sink)
	}
	return path
}

// Status reports how a taint analysis run ended.
type Status int

const (
	// Completed means the solver reached its fixed point: every leak
	// reachable under the configuration has been found.
	Completed Status = iota
	// Cancelled means the context expired or was cancelled mid-solve; the
	// reported leaks are the partial set found so far.
	Cancelled
	// BudgetExhausted means MaxPropagations ran out before the fixed
	// point.
	BudgetExhausted
	// LeakLimitReached means the MaxLeaks cap cut the run short; exactly
	// the cap's worth of distinct leaks was recorded, and more may exist.
	LeakLimitReached
)

func (s Status) String() string {
	switch s {
	case Completed:
		return "completed"
	case Cancelled:
		return "cancelled"
	case BudgetExhausted:
		return "budget-exhausted"
	case LeakLimitReached:
		return "leak-limit-reached"
	}
	return "unknown"
}

// Results is the outcome of a taint analysis run.
type Results struct {
	Leaks []*Leak
	// Stats carries solver counters for the benchmark harness.
	Stats Stats
	// Status tells whether the run completed or was truncated; a
	// truncated run's Leaks and Stats describe the work actually done.
	Status Status
}

// Stats are solver effort counters.
type Stats struct {
	// ForwardEdges and BackwardEdges count distinct path edges inserted
	// into the two solvers' jump tables.
	ForwardEdges  int
	BackwardEdges int
	AliasQueries  int
	// GatedAliasQueries counts backward alias searches the string-carrier
	// fast path proved redundant and skipped. Always 0 when
	// Config.StringCarriers is off.
	GatedAliasQueries int
	// Propagations counts novel path-edge insertions (forward plus
	// backward); duplicates the jump tables absorb are not counted. This
	// is the unit MaxPropagations charges, and it always equals
	// ForwardEdges + BackwardEdges.
	Propagations int
	// Summaries counts method summaries (end-of-method records) installed.
	Summaries int
	// PeakAbstractions is the number of distinct taint abstractions
	// interned over the run — the solver's fact-domain footprint.
	PeakAbstractions int
	// Workers is the worker-pool size the run used (1 = sequential drain).
	Workers int
	// ConeMethods and SkippedComponents mirror the query cone the run was
	// pruned against (zero on whole-program runs).
	ConeMethods       int
	SkippedComponents int
	// Store reports the persistent summary store's effect on the run;
	// nil when no summary session was configured.
	Store *StoreStats
}

// PathEdges is the total of distinct forward and backward path edges.
func (s Stats) PathEdges() int { return s.ForwardEdges + s.BackwardEdges }

// leakOrd is the canonical sort key of a leak: (source method, source
// stmt index, sink method, sink stmt index, access path). Statement
// indices — not their rendered strings, which need not be unique within a
// method — make the order total and independent of worklist discovery
// order, so report output is stable across runs and worker counts.
type leakOrd struct {
	srcMethod string
	srcIdx    int
	snkMethod string
	snkIdx    int
	ap        string
}

func leakOrdOf(l *Leak) leakOrd {
	o := leakOrd{srcIdx: -1, snkIdx: -1}
	if s := l.Source(); s != nil && s.Stmt != nil {
		o.srcMethod = s.Stmt.Method().String()
		o.srcIdx = s.Stmt.Index()
	}
	if l.Sink != nil {
		o.snkMethod = l.Sink.Method().String()
		o.snkIdx = l.Sink.Index()
	}
	if l.Abstraction != nil && l.Abstraction.AP != nil {
		o.ap = l.Abstraction.AP.String()
	}
	return o
}

func (a leakOrd) less(b leakOrd) bool {
	switch {
	case a.srcMethod != b.srcMethod:
		return a.srcMethod < b.srcMethod
	case a.srcIdx != b.srcIdx:
		return a.srcIdx < b.srcIdx
	case a.snkMethod != b.snkMethod:
		return a.snkMethod < b.snkMethod
	case a.snkIdx != b.snkIdx:
		return a.snkIdx < b.snkIdx
	default:
		return a.ap < b.ap
	}
}

// DistinctSourceSinkPairs collapses leaks to unique (source stmt, sink
// stmt) pairs, the unit DroidBench-style scoring counts. The full leak
// set is put into canonical order before deduplication, so both the
// output order and the representative chosen for each pair are
// deterministic regardless of the order leaks were discovered in.
func (r *Results) DistinctSourceSinkPairs() []*Leak {
	sorted := append([]*Leak(nil), r.Leaks...)
	sort.SliceStable(sorted, func(i, j int) bool {
		return leakOrdOf(sorted[i]).less(leakOrdOf(sorted[j]))
	})
	type pairKey struct{ src, snk ir.Stmt }
	seen := make(map[pairKey]bool)
	out := make([]*Leak, 0, len(sorted))
	for _, l := range sorted {
		var src ir.Stmt
		if s := l.Source(); s != nil {
			src = s.Stmt
		}
		k := pairKey{src, l.Sink}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, l)
	}
	return out
}

// FilterSinks returns a shallow copy of the results keeping only the
// leaks whose matched sink rule satisfies keep. Stats and Status carry
// over unchanged. This is the whole-program side of the query-equivalence
// contract: a query-mode run's canonical report must be byte-identical to
// the whole-program report filtered to the queried sink rules.
func (r *Results) FilterSinks(keep func(sourcesink.Sink) bool) *Results {
	out := &Results{Stats: r.Stats, Status: r.Status}
	for _, l := range r.Leaks {
		if keep(l.SinkSpec) {
			out.Leaks = append(out.Leaks, l)
		}
	}
	return out
}

// Render prints the leaks one per line, for CLI output.
func (r *Results) Render() string {
	leaks := r.DistinctSourceSinkPairs()
	if len(leaks) == 0 {
		return "no leaks found\n"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d leak(s) found:\n", len(leaks))
	for i, l := range leaks {
		fmt.Fprintf(&sb, "  [%d] %s\n", i+1, l)
	}
	return sb.String()
}

// Analyze runs the full taint analysis over the ICFG with the given
// sources/sinks and configuration, seeding at the given entry methods.
// The context bounds the run: when it is cancelled or its deadline
// passes, the solver stops cleanly and returns the partial results with
// Status == Cancelled.
func Analyze(ctx context.Context, icfg *cfg.ICFG, mgr *sourcesink.Manager, cfgc Config, entries ...*ir.Method) *Results {
	e := newEngine(icfg, mgr, cfgc)
	return e.run(ctx, entries)
}
