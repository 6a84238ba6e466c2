package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"flowdroid/internal/apk"
	"flowdroid/internal/appgen"
	"flowdroid/internal/callbacks"
	"flowdroid/internal/cfg"
	"flowdroid/internal/constprop"
	"flowdroid/internal/core"
	"flowdroid/internal/framework"
	"flowdroid/internal/ir"
	"flowdroid/internal/irtext"
	"flowdroid/internal/lifecycle"
	"flowdroid/internal/pta"
	"flowdroid/internal/scene"
	"flowdroid/internal/sourcesink"
	"flowdroid/internal/summarystore"
	"flowdroid/internal/taint"
)

// span is one timed call. Spans of one analysis share app; parent is the
// index of the enclosing span, -1 for a root. Allocations are the
// runtime.MemStats delta around the call, children included.
type span struct {
	name       string
	parent     int
	app        int
	start, end time.Duration // since the tracer started
	mallocs    uint64
	bytes      uint64
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer keeps every span in memory; the run writes them out at its end.
// A nil tracer records nothing, which the store fill uses.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	app   int
	ms    runtime.MemStats
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	runtime.ReadMemStats(&t.ms)
	t.spans = append(t.spans, span{name: name, parent: parent, app: t.app,
		mallocs: t.ms.Mallocs, bytes: t.ms.TotalAlloc})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	t.spans[id].start = time.Since(t.t0)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	end := time.Since(t.t0)
	runtime.ReadMemStats(&t.ms)
	sp := &t.spans[id]
	sp.end = end
	sp.mallocs = t.ms.Mallocs - sp.mallocs
	sp.bytes = t.ms.TotalAlloc - sp.bytes
	t.stack = t.stack[:len(t.stack)-1]
}

// do times fn as one span.
func (t *tracer) do(name string, fn func()) {
	id := t.begin(name)
	fn()
	t.end(id)
}

// replayCounts are the layer counters of one replayed analysis.
type replayCounts struct {
	resolved, unresolved            int
	callbacks                       int
	ptaProps, cgEdges, cgReachable  int
	hits, lookups                   int
	taintProps, pathEdges           int
	aliasQueries, gatedAliasQueries int
}

func (c *replayCounts) add(o replayCounts) {
	c.resolved += o.resolved
	c.unresolved += o.unresolved
	c.callbacks += o.callbacks
	c.ptaProps += o.ptaProps
	c.cgEdges += o.cgEdges
	c.cgReachable += o.cgReachable
	c.hits += o.hits
	c.lookups += o.lookups
	c.taintProps += o.taintProps
	c.pathEdges += o.pathEdges
	c.aliasQueries += o.aliasQueries
	c.gatedAliasQueries += o.gatedAliasQueries
}

// replayFingerprint scopes the replay's own summary store. core's
// namespace fingerprint is unexported; any fixed string works because
// the replay store is never shared with core's.
const replayFingerprint = "perfbench-replay"

// replay runs core.AnalyzeFiles' pass order under core.DefaultOptions
// (no lint, no query, reflection resolution on, points-to call graph,
// sequential solver), calling each layer's public function inside its
// own span. The fidelity check in traceRun compares its report with
// core's, so a drift from core's pass order fails the run instead of
// timing a different program.
func replay(t *tracer, files map[string]string, store *summarystore.Store) (tres *taint.Results, c replayCounts, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("replay panic: %v", r)
		}
	}()
	ctx := context.Background()
	opts := core.DefaultOptions()
	root := t.begin("app")
	defer t.end(root)

	var app *apk.App
	t.do("apk.load", func() { app, err = apk.LoadFiles(files) })
	if err != nil {
		return nil, c, err
	}
	var sc *scene.Scene
	t.do("scene", func() { sc = scene.New(app.Program) })
	var mgr *sourcesink.Manager
	t.do("sourcesink", func() {
		mgr = sourcesink.Default(sc)
		mgr.AttachApp(app)
	})

	var cp *constprop.Result
	t.do("constprop.analyze", func() { cp = constprop.Analyze(ctx, sc) })
	if cp.Truncated {
		return nil, c, errors.New("constprop truncated without a deadline")
	}
	c.resolved, c.unresolved = cp.Report.ResolvedSites, len(cp.Report.Unresolved)
	mt := t.begin("constprop.materialize")
	reflEdges, err := cp.Materialize(app.Program)
	if err == nil && len(reflEdges) > 0 {
		// Materialization added the bridges class to the program.
		t.do("scene.refresh", sc.Refresh)
	}
	t.end(mt)
	if err != nil {
		return nil, c, err
	}

	var cbs *callbacks.Result
	t.do("callbacks", func() { cbs = callbacks.DiscoverWith(ctx, app, sc) })
	c.callbacks = cbs.Total()

	lc := t.begin("lifecycle")
	entry, err := lifecycle.GenerateWith(app, cbs, sc, opts.Lifecycle)
	if err == nil {
		t.do("scene.refresh", sc.Refresh)
	}
	t.end(lc)
	if err != nil {
		return nil, c, err
	}

	var p *pta.Result
	t.do("pta", func() { p = pta.BuildWithExtra(ctx, sc, reflEdges, entry) })
	c.ptaProps, c.cgEdges, c.cgReachable = p.Propagations, p.Graph.NumEdges(), len(p.Graph.Reachable())

	var icfg *cfg.ICFG
	t.do("cfg.icfg", func() { icfg = cfg.NewICFG(sc, p.Graph) })

	tc := opts.Taint
	var sess *summarystore.Session
	if store != nil {
		var hashes map[*ir.Method]string
		t.do("summarystore.hash", func() { hashes = summarystore.HashMethods(p.Graph) })
		t.do("summarystore.session", func() { sess = store.Session(app.Package, replayFingerprint, hashes) })
		tc.Summaries = sess
	}
	t.do("taint", func() { tres = taint.Analyze(ctx, icfg, mgr, tc, entry) })
	if sess != nil {
		t.do("summarystore.flush", func() { err = sess.Flush() })
		if err != nil {
			return nil, c, err
		}
	}
	st := tres.Stats
	c.taintProps, c.pathEdges = st.Propagations, st.PathEdges()
	c.aliasQueries, c.gatedAliasQueries = st.AliasQueries, st.GatedAliasQueries
	if st.Store != nil {
		c.hits = st.Store.Hits
		c.lookups = st.Store.Hits + st.Store.Misses + st.Store.Invalidated + st.Store.Corrupt
	}
	return tres, c, nil
}

// shadowFrontend re-executes, on a throw-away program, the three steps
// apk.LoadFiles runs internally: the framework stubs, the parse of the
// app's .ir files and the link. apk.LoadFiles gives no way to time them
// from outside, so the traced run repeats them under their own root span,
// which stays out of the per-app time and the tracing overhead.
func shadowFrontend(t *tracer, files map[string]string) (irBytes int, err error) {
	var names []string
	for name := range files {
		if strings.HasSuffix(name, ".ir") {
			names = append(names, name)
			irBytes += len(files[name])
		}
	}
	sort.Strings(names)
	root := t.begin("frontend.shadow")
	defer t.end(root)
	var prog *ir.Program
	t.do("framework.program", func() { prog = framework.NewProgram() })
	t.do("irtext.parse", func() {
		for _, name := range names {
			if err = irtext.ParseInto(prog, files[name], name); err != nil {
				return
			}
		}
	})
	if err != nil {
		return 0, err
	}
	t.do("ir.link", func() { err = prog.Link() })
	return irBytes, err
}

// fillReplayStore fills the replay's own store from the unmutated corpus
// through the same public calls the traced passes time, then captures it.
func (b *bench) fillReplayStore() error {
	dir := filepath.Join(b.dir, "replay-store")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	b.replayStore = summarystore.Open(dir)
	for _, a := range b.c.base {
		tres, _, err := replay(nil, a.Files, b.replayStore)
		if err == nil {
			err = checkLeaks(a, tres.Status == taint.Completed, tres.Status, len(tres.DistinctSourceSinkPairs()))
		}
		if err != nil {
			b.fail(fmt.Sprintf("set-up: replay: %s: %v", a.Name, err))
		}
	}
	var err error
	b.replaySnap, err = capture(dir)
	return err
}

// traceRun measures the per-layer metrics: whole corpus passes until the
// time is spent, each app analyzed once by core.AnalyzeFiles (untimed by
// spans, the overhead baseline and the fidelity reference) and once by
// the traced replay, then its front-end split by shadowFrontend.
func (b *bench) traceRun(seconds float64, prov *provenance, stdout io.Writer) (result, error) {
	opts := b.options()
	t := newTracer()
	var coreBusy, traceBusy time.Duration
	var total replayCounts
	var irBytes int
	var first *passCounts
	var res result
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	// one analyzes a single app: core.AnalyzeFiles first, then the traced
	// replay and the shadow front-end. A failed replay's spans are dropped.
	one := func(a appgen.App) (replayCounts, error) {
		t0 := time.Now()
		cres, err := analyze(a.Files, opts)
		coreBusy += time.Since(t0)
		if err := checkCore(a, cres, err); err != nil {
			return replayCounts{}, err
		}
		t.app = res.Attempted
		root := len(t.spans)
		tres, c, err := replay(t, a.Files, b.replayStore)
		if err != nil {
			err = fmt.Errorf("%s: %w", a.Name, err)
		} else {
			err = fidelity(a, cres, tres, c)
		}
		if err != nil {
			t.spans, t.stack = t.spans[:root], t.stack[:0]
			return c, err
		}
		traceBusy += t.spans[root].dur()
		n, err := shadowFrontend(t, a.Files)
		if err != nil {
			return c, fmt.Errorf("%s: shadow front-end: %w", a.Name, err)
		}
		irBytes += n
		return c, nil
	}

	var sm speedometer
	sm.tick(0)
	passes := 0
	for passes == 0 || time.Now().Before(deadline) {
		if err := b.restoreStores(); err != nil {
			return result{}, err
		}
		runtime.GC()
		var pc passCounts
		for _, a := range b.c.apps {
			res.Attempted++
			t0 := time.Now()
			c, err := one(a)
			sm.tick(time.Since(t0))
			if err != nil {
				res.Failed++
				b.fail(err.Error())
				continue
			}
			total.add(c)
			pc.hits += c.hits
			pc.misses += c.lookups - c.hits
		}
		if first == nil {
			first = &pc
		} else if pc != *first {
			b.fail(fmt.Sprintf("replay store counters drifted: pass %d had %d hits/%d misses, pass 1 had %d/%d",
				passes+1, pc.hits, pc.misses, first.hits, first.misses))
		}
		passes++
	}
	prov.Passes = passes

	// Layer times are calibrated with the run's reference chunks (calib.go).
	f := sm.factor()
	prov.Uncalibrated = map[string]float64{"ref_chunk_ms": sm.ref.Seconds() * 1e3 / float64(sm.chunks)}
	layers := summarize(t.spans)
	analyzed := math.Max(1, float64(layers["app"].count))
	ms := func(name string) metric {
		return metric{float64(layers[name].busy.Nanoseconds()) / 1e6 / analyzed * f, "ms"}
	}
	allocs := func(names ...string) metric {
		var n uint64
		for _, name := range names {
			n += layers[name].mallocs
		}
		return metric{float64(n) / analyzed, "allocs/app"}
	}
	perPass := func(n int) metric { return metric{float64(n) / float64(passes), "count"} }
	ratio := func(num, den int, none float64) metric {
		if den == 0 {
			return metric{none, "ratio"}
		}
		return metric{float64(num) / float64(den), "ratio"}
	}
	parseMBps := 0.0
	if d := layers["irtext.parse"].busy; d > 0 {
		parseMBps = float64(irBytes) / 1e6 / (d.Seconds() * f)
	}
	res.Metrics = map[string]metric{
		"apk.load_ms":                ms("apk.load"),
		"apk.load_allocs":            allocs("apk.load"),
		"framework.program_ms":       ms("framework.program"),
		"framework.program_allocs":   allocs("framework.program"),
		"irtext.parse_ms":            ms("irtext.parse"),
		"irtext.parse_allocs":        allocs("irtext.parse"),
		"irtext.parse_mb_per_s":      {parseMBps, "MB/s"},
		"ir.link_ms":                 ms("ir.link"),
		"ir.link_allocs":             allocs("ir.link"),
		"scene.ms":                   ms("scene"),
		"scene.refresh_ms":           ms("scene.refresh"),
		"sourcesink.ms":              ms("sourcesink"),
		"constprop.analyze_ms":       ms("constprop.analyze"),
		"constprop.materialize_ms":   ms("constprop.materialize"),
		"constprop.allocs":           allocs("constprop.analyze", "constprop.materialize"),
		"constprop.resolved_sites":   perPass(total.resolved),
		"constprop.unresolved_sites": perPass(total.unresolved),
		"constprop.resolved_ratio":   ratio(total.resolved, total.resolved+total.unresolved, 1),
		"callbacks.ms":               ms("callbacks"),
		"callbacks.found":            perPass(total.callbacks),
		"lifecycle.ms":               ms("lifecycle"),
		"lifecycle.allocs":           allocs("lifecycle"),
		"pta.ms":                     ms("pta"),
		"pta.propagations":           perPass(total.ptaProps),
		"callgraph.edges":            perPass(total.cgEdges),
		"callgraph.reachable":        perPass(total.cgReachable),
		"cfg.icfg_ms":                ms("cfg.icfg"),
		"summarystore.hash_ms":       ms("summarystore.hash"),
		"summarystore.session_ms":    ms("summarystore.session"),
		"summarystore.flush_ms":      ms("summarystore.flush"),
		"summarystore.hits":          perPass(total.hits),
		"summarystore.misses":        perPass(total.lookups - total.hits),
		"summarystore.reuse_ratio":   ratio(total.hits, total.lookups, 0),
		"taint.ms":                   ms("taint"),
		"taint.allocs":               allocs("taint"),
		"taint.propagations":         perPass(total.taintProps),
		"taint.path_edges":           perPass(total.pathEdges),
		"taint.alias_queries":        perPass(total.aliasQueries),
		"taint.gated_alias_queries":  perPass(total.gatedAliasQueries),
		"trace.overhead_ratio":       {traceBusy.Seconds() / coreBusy.Seconds(), "ratio"},
	}
	prov.Samples = make(map[string]int, len(res.Metrics))
	for name := range res.Metrics {
		prov.Samples[name] = int(analyzed)
	}

	shares := layerShares(layers)
	line, _ := json.Marshal(map[string]any{"layers": shares})
	fmt.Fprintf(stdout, "%s\n", line)
	if err := writeTrace(b.workdir, prov, t.spans, shares); err != nil {
		b.fail(err.Error())
	}
	return res, nil
}

// fidelity checks the replay against core: the same ground truth, a
// byte-identical canonical report and the same effort counters.
func fidelity(a appgen.App, cres *core.Result, tres *taint.Results, c replayCounts) error {
	if err := checkLeaks(a, tres.Status == taint.Completed, tres.Status, len(tres.DistinctSourceSinkPairs())); err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	want, err := cres.Taint.CanonicalJSON()
	if err != nil {
		return err
	}
	got, err := tres.CanonicalJSON()
	if err != nil {
		return err
	}
	if !bytes.Equal(want, got) {
		return fmt.Errorf("%s: replay report differs from core.AnalyzeFiles", a.Name)
	}
	k := cres.Counters
	if k.PTAPropagations != c.ptaProps || k.CallGraphEdges != c.cgEdges ||
		k.Propagations != c.taintProps || k.ReflectionResolved != c.resolved ||
		k.ReflectionUnresolved != c.unresolved {
		return fmt.Errorf("%s: replay counters differ from core.AnalyzeFiles", a.Name)
	}
	return nil
}

// layerStat aggregates every span of one name.
type layerStat struct {
	count   int
	busy    time.Duration // summed span durations
	self    time.Duration // busy minus the time child spans cover
	mallocs uint64
}

func summarize(spans []span) map[string]layerStat {
	child := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			child[s.parent] += s.dur()
		}
	}
	out := make(map[string]layerStat)
	for i, s := range spans {
		st := out[s.name]
		st.count++
		st.busy += s.dur()
		st.self += s.dur() - child[i]
		st.mallocs += s.mallocs
		out[s.name] = st
	}
	return out
}

// share is one layer's part of the traced per-app time.
type share struct {
	Inclusive float64 `json:"inclusive"`
	Self      float64 `json:"self"`
}

// layerShares divides each replay layer's time by the summed "app" root
// time. The shadow front-end split is given against the same base, so
// its parts read as shares of the analysis they were taken from.
func layerShares(layers map[string]layerStat) map[string]share {
	base := layers["app"].busy.Seconds()
	out := make(map[string]share)
	if base == 0 {
		return out
	}
	for name, st := range layers {
		if name == "app" || name == "frontend.shadow" {
			continue
		}
		out[name] = share{st.busy.Seconds() / base, st.self.Seconds() / base}
	}
	return out
}

// writeTrace writes every span of the run, with the layer shares, next to
// the run's result file.
func writeTrace(workdir string, prov *provenance, spans []span, shares map[string]share) error {
	rows := make([][]any, len(spans))
	for i, s := range spans {
		rows[i] = []any{s.name, s.parent, s.app, s.start.Nanoseconds(), s.end.Nanoseconds(), s.mallocs, s.bytes}
	}
	data, err := json.Marshal(map[string]any{
		"provenance": prov,
		"columns":    []string{"name", "parent", "app", "start_ns", "end_ns", "mallocs", "bytes"},
		"spans":      rows,
		"shares":     shares,
	})
	if err != nil {
		return err
	}
	p := filepath.Join(workdir, fmt.Sprintf("trace-%s-seed%d.json", prov.Workload, prov.Seed))
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(p, data, 0o644)
}
