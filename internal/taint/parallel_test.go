package taint

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"flowdroid/internal/framework"
	"flowdroid/internal/ir"
	"flowdroid/internal/irtext"
)

// mainStmts parses a program and returns Main.main's statements, for
// whitebox tests that drive the engine's propagation layer directly.
func mainStmts(t *testing.T, src string) []ir.Stmt {
	t.Helper()
	prog := framework.NewProgram()
	if err := irtext.ParseInto(prog, stubs+src, "whitebox.ir"); err != nil {
		t.Fatal(err)
	}
	if err := prog.Link(); err != nil {
		t.Fatal(err)
	}
	m := prog.Class("Main").Method("main", 0)
	if m == nil {
		t.Fatal("Main.main/0 not found")
	}
	return m.Body()
}

// TestDuplicateEdgeConsumesNoBudget is the regression test for the budget
// accounting fix: re-propagating a path edge the jump table already holds
// must not charge MaxPropagations, which counts novel insertions only.
func TestDuplicateEdgeConsumesNoBudget(t *testing.T) {
	stmts := mainStmts(t, manyLeaks)
	e := newEngine(nil, nil, Config{APLength: 5, MaxPropagations: 100})

	e.fwPropagate(e.zero, stmts[0], e.zero)
	if got := e.stats.propagations.Load(); got != 1 {
		t.Fatalf("first forward edge: propagations = %d, want 1", got)
	}
	e.fwPropagate(e.zero, stmts[0], e.zero) // exact duplicate
	if got := e.stats.propagations.Load(); got != 1 {
		t.Errorf("duplicate forward edge charged the budget: propagations = %d, want 1", got)
	}

	e.bwPropagate(e.zero, stmts[0], e.zero)
	e.bwPropagate(e.zero, stmts[0], e.zero) // exact duplicate
	if got := e.stats.propagations.Load(); got != 2 {
		t.Errorf("duplicate backward edge charged the budget: propagations = %d, want 2", got)
	}

	e.q.mu.Lock()
	queued := len(e.q.items)
	e.q.mu.Unlock()
	if queued != 2 {
		t.Errorf("queue holds %d items, want 2 (duplicates must not be re-enqueued)", queued)
	}
}

// TestBudgetStopsOnCrossing: the insertion that reaches MaxPropagations
// records BudgetExhausted and is not enqueued; later insertions are also
// refused.
func TestBudgetStopsOnCrossing(t *testing.T) {
	stmts := mainStmts(t, manyLeaks)
	if len(stmts) < 4 {
		t.Fatalf("fixture too small: %d stmts", len(stmts))
	}
	e := newEngine(nil, nil, Config{APLength: 5, MaxPropagations: 3})
	for _, n := range stmts[:4] {
		e.fwPropagate(e.zero, n, e.zero)
	}
	if st := e.q.finalStatus(); st != BudgetExhausted {
		t.Errorf("status = %v, want BudgetExhausted", st)
	}
	e.q.mu.Lock()
	queued := len(e.q.items)
	e.q.mu.Unlock()
	if queued >= 3 {
		t.Errorf("queue holds %d items, want < 3 (the crossing edge must not be enqueued)", queued)
	}
}

// TestLeakLimitReachedStatus: the MaxLeaks cap must be visible in the
// run's status, with exactly the cap's worth of leaks recorded; an
// uncapped run still reports Completed.
func TestLeakLimitReachedStatus(t *testing.T) {
	conf := DefaultConfig()
	conf.MaxLeaks = 2
	r := analyze(t, manyLeaks, conf)
	if r.Status != LeakLimitReached {
		t.Errorf("capped run status = %v, want LeakLimitReached", r.Status)
	}
	if len(r.Leaks) != 2 {
		t.Errorf("capped run recorded %d leaks, want exactly 2", len(r.Leaks))
	}
	full := analyze(t, manyLeaks, DefaultConfig())
	if full.Status != Completed {
		t.Errorf("uncapped run status = %v, want Completed", full.Status)
	}
}

// TestReportOrderIsCanonical: the distinct report must not depend on the
// order leaks were discovered in — reversing the raw leak slice changes
// nothing — and must come out sorted by the canonical key.
func TestReportOrderIsCanonical(t *testing.T) {
	r := analyze(t, manyLeaks, DefaultConfig())
	if len(r.Leaks) < 2 {
		t.Fatalf("fixture found %d leaks, need >= 2", len(r.Leaks))
	}
	base, err := r.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	for i, j := 0, len(r.Leaks)-1; i < j; i, j = i+1, j-1 {
		r.Leaks[i], r.Leaks[j] = r.Leaks[j], r.Leaks[i]
	}
	rev, err := r.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(base, rev) {
		t.Errorf("report depends on leak discovery order:\n%s\nvs\n%s", base, rev)
	}
	pairs := r.DistinctSourceSinkPairs()
	for i := 1; i < len(pairs); i++ {
		if leakOrdOf(pairs[i]).less(leakOrdOf(pairs[i-1])) {
			t.Errorf("pairs[%d] and pairs[%d] out of canonical order", i-1, i)
		}
	}
}

// TestWorkerPanicIsCapturedOnCaller: a panic raised on a worker
// goroutine must not crash the process. drainParallel re-raises the
// first worker panic — with the worker's own stack attached — on the
// calling goroutine after the pool has shut down, so the callers' usual
// recovery (pipeline stage guard, corpus batch isolation) converts it
// into a Recovered result exactly as in the sequential path.
func TestWorkerPanicIsCapturedOnCaller(t *testing.T) {
	stmts := mainStmts(t, manyLeaks)
	e := newEngine(nil, nil, Config{APLength: 5})
	// The engine's icfg is nil, so processing any forward task nil-derefs
	// inside processForward — i.e. panics on a worker goroutine.
	e.fwPropagate(e.zero, stmts[0], e.zero)

	rec := func() (r any) {
		defer func() { r = recover() }()
		e.drainParallel(context.Background(), 4)
		return nil
	}()
	wp, ok := rec.(*workerPanic)
	if !ok {
		t.Fatalf("recovered %v (%T), want *workerPanic re-raised on the caller", rec, rec)
	}
	if wp.val == nil {
		t.Error("workerPanic lost the original panic value")
	}
	if len(wp.stack) == 0 {
		t.Error("workerPanic lost the worker's stack")
	}
	if msg := wp.Error(); !strings.Contains(msg, "worker panic") {
		t.Errorf("workerPanic.Error() = %q, want it to identify a worker panic", msg)
	}
}

// valueStmt implements ir.Stmt as a non-pointer type (embedding
// *ir.StmtBase promotes the interface methods onto the value type) —
// the shape stmtShard's pointer fast path cannot handle.
type valueStmt struct{ *ir.StmtBase }

func (valueStmt) String() string { return "valueStmt" }

// TestStmtShardNonPointerStmt: sharding must not panic for a
// non-pointer ir.Stmt implementation, and the jump table must still
// insert and dedup it.
func TestStmtShardNonPointerStmt(t *testing.T) {
	var s ir.Stmt = valueStmt{&ir.StmtBase{}}
	if sh := stmtShard(s); sh >= jumpShards {
		t.Fatalf("stmtShard = %d, want < %d", sh, jumpShards)
	}
	jt := newJumpTable()
	if !jt.insert(s, edge{}) {
		t.Error("first insert of a non-pointer stmt not novel")
	}
	if jt.insert(s, edge{}) {
		t.Error("duplicate insert of a non-pointer stmt reported novel")
	}
}

// TestAbortStopsAccounting: once the queue is stopped, further
// propagations must not grow the edge or propagation counters — the
// budget cannot be overrun by work discovered after the abort.
func TestAbortStopsAccounting(t *testing.T) {
	stmts := mainStmts(t, manyLeaks)
	if len(stmts) < 2 {
		t.Fatalf("fixture too small: %d stmts", len(stmts))
	}
	e := newEngine(nil, nil, Config{APLength: 5, MaxPropagations: 100})
	e.fwPropagate(e.zero, stmts[0], e.zero)
	e.q.stop(BudgetExhausted)
	e.fwPropagate(e.zero, stmts[1], e.zero)
	e.bwPropagate(e.zero, stmts[1], e.zero)
	if got := e.stats.propagations.Load(); got != 1 {
		t.Errorf("propagations after abort = %d, want 1", got)
	}
	if fw, bw := e.stats.forwardEdges.Load(), e.stats.backwardEdges.Load(); fw != 1 || bw != 0 {
		t.Errorf("edges after abort = fw %d/bw %d, want fw 1/bw 0", fw, bw)
	}
}

// TestWorkerCountEquivalence: every edge-case fixture must produce a
// byte-identical canonical report and identical novel-edge counts at 1, 2
// and 8 workers — the exploded-supergraph closure is confluent, so the
// fact sets cannot depend on the schedule.
func TestWorkerCountEquivalence(t *testing.T) {
	fixtures := map[string]string{
		"listing2":         listing2,
		"staticFlow":       staticFlow,
		"recursiveHeap":    recursiveHeap,
		"deepChain":        deepChain,
		"manyLeaks":        manyLeaks,
		"listInField":      listInField,
		"calleeReads":      calleeReads,
		"arrayThroughCall": arrayThroughCall,
		"killFlow":         killFlow,
		"sinkViaObjectArg": sinkViaObjectArg,
		"twoSources":       twoSources,
	}
	for name, src := range fixtures {
		t.Run(name, func(t *testing.T) {
			var baseJSON []byte
			var baseStats Stats
			for _, w := range []int{1, 2, 8} {
				conf := DefaultConfig()
				conf.Workers = w
				r := analyze(t, src, conf)
				if r.Status != Completed {
					t.Fatalf("workers=%d: status %v", w, r.Status)
				}
				if r.Stats.Workers != w {
					t.Errorf("workers=%d: Stats.Workers = %d", w, r.Stats.Workers)
				}
				if r.Stats.Propagations != r.Stats.ForwardEdges+r.Stats.BackwardEdges {
					t.Errorf("workers=%d: propagations %d != forward %d + backward %d",
						w, r.Stats.Propagations, r.Stats.ForwardEdges, r.Stats.BackwardEdges)
				}
				js, err := r.CanonicalJSON()
				if err != nil {
					t.Fatal(err)
				}
				if w == 1 {
					baseJSON, baseStats = js, r.Stats
					continue
				}
				if !bytes.Equal(baseJSON, js) {
					t.Errorf("workers=%d: report differs from workers=1:\n%s\nvs\n%s", w, baseJSON, js)
				}
				if r.Stats.ForwardEdges != baseStats.ForwardEdges || r.Stats.BackwardEdges != baseStats.BackwardEdges {
					t.Errorf("workers=%d: edges fw %d/bw %d, want fw %d/bw %d (novel-insertion counts are schedule-independent)",
						w, r.Stats.ForwardEdges, r.Stats.BackwardEdges, baseStats.ForwardEdges, baseStats.BackwardEdges)
				}
				if r.Stats.PeakAbstractions != baseStats.PeakAbstractions {
					t.Errorf("workers=%d: PeakAbstractions = %d, want %d (distinct interned abstractions are schedule-independent)",
						w, r.Stats.PeakAbstractions, baseStats.PeakAbstractions)
				}
				if r.Stats.AliasQueries != baseStats.AliasQueries || r.Stats.Summaries != baseStats.Summaries {
					t.Errorf("workers=%d: alias queries %d / summaries %d, want %d / %d",
						w, r.Stats.AliasQueries, r.Stats.Summaries, baseStats.AliasQueries, baseStats.Summaries)
				}
			}
		})
	}
}
