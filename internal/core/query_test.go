package core_test

// TestQueryEquivalence is the acceptance oracle of the demand-driven
// query mode: for any query Q, the query-mode canonical report must be
// byte-identical to the whole-program report filtered to Q's sinks. The
// suites cover the three app shapes the pipeline handles — DroidBench
// (Android lifecycle micro benchmarks), SecuriBench Micro (plain-Java
// servlet entry points) and a seeded appgen corpus (multi-component apps
// with cross-component flows) — each at worker counts 1, 2 and 8.

import (
	"bytes"
	"context"
	"testing"

	"flowdroid/internal/appgen"
	"flowdroid/internal/core"
	"flowdroid/internal/droidbench"
	"flowdroid/internal/ir"
	"flowdroid/internal/securibench"
	"flowdroid/internal/sourcesink"
	"flowdroid/internal/taint"
)

var queryWorkers = []int{1, 2, 8}

// matchesQuery is the filtering side of the contract: does the leak's
// matched sink rule belong to the query?
func matchesQuery(q core.Query) func(sourcesink.Sink) bool {
	return func(s sourcesink.Sink) bool {
		for _, sel := range q.Sinks {
			if s.MatchesSelector(sel) {
				return true
			}
		}
		return false
	}
}

// filteredJSON renders the whole-program results filtered to the query.
func filteredJSON(t *testing.T, whole *taint.Results, q core.Query) []byte {
	t.Helper()
	js, err := whole.FilterSinks(matchesQuery(q)).CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return js
}

// queriesFor derives the query set exercised for one app: one query per
// distinct sink label among the whole-program leaks (the interesting
// ones), plus the given always-configured label as the likely-empty probe.
func queriesFor(whole *taint.Results, probe string) []core.Query {
	seen := map[string]bool{}
	var out []core.Query
	for _, l := range whole.Leaks {
		if l.SinkSpec.Label != "" && !seen[l.SinkSpec.Label] {
			seen[l.SinkSpec.Label] = true
			out = append(out, core.Query{Sinks: []string{l.SinkSpec.Label}})
		}
	}
	if !seen[probe] {
		out = append(out, core.Query{Sinks: []string{probe}})
	}
	return out
}

func TestQueryEquivalence(t *testing.T) {
	t.Run("droidbench", func(t *testing.T) {
		for _, c := range droidbench.Cases() {
			whole, err := core.AnalyzeFiles(context.Background(), c.Files, core.DefaultOptions())
			if err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
			for _, q := range queriesFor(whole.Taint, "log") {
				want := filteredJSON(t, whole.Taint, q)
				for _, w := range queryWorkers {
					opts := core.DefaultOptions()
					opts.Query = q
					opts.Taint.Workers = w
					res, err := core.AnalyzeFiles(context.Background(), c.Files, opts)
					if err != nil {
						t.Fatalf("%s query %v: %v", c.Name, q.Sinks, err)
					}
					js, err := res.Taint.CanonicalJSON()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(want, js) {
						t.Errorf("%s query %v workers=%d: report differs from filtered whole-program:\nwhole filtered:\n%s\nquery mode:\n%s",
							c.Name, q.Sinks, w, want, js)
					}
				}
			}
		}
	})

	t.Run("securibench", func(t *testing.T) {
		// The class.method selector singles out println of the two
		// same-label response rules, exercising first-match restriction on
		// overlapping rules; the label selector takes both.
		queries := []core.Query{
			{Sinks: []string{"response"}},
			{Sinks: []string{"java.io.PrintWriter.println"}},
		}
		for _, c := range securibench.Cases() {
			prog, err := securibench.Program(c)
			if err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
			entries := doGetEntries(prog)
			if len(entries) == 0 {
				t.Fatalf("%s: no doGet entry points", c.Name)
			}
			whole, err := core.AnalyzeJava(context.Background(), prog, securibench.Rules(), securibench.Config(), entries...)
			if err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
			for _, q := range queries {
				want := filteredJSON(t, whole, q)
				for _, w := range queryWorkers {
					conf := securibench.Config()
					conf.Workers = w
					res, err := core.AnalyzeJavaQuery(context.Background(), prog, securibench.Rules(), conf, q, entries...)
					if err != nil {
						t.Fatalf("%s query %v: %v", c.Name, q.Sinks, err)
					}
					js, err := res.CanonicalJSON()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(want, js) {
						t.Errorf("%s query %v workers=%d: report differs from filtered whole-program:\nwhole filtered:\n%s\nquery mode:\n%s",
							c.Name, q.Sinks, w, want, js)
					}
				}
			}
		}
	})

	t.Run("appgen", func(t *testing.T) {
		// Over the corpus, the single-sink "sms" query must also do
		// strictly less solver work than the whole-program runs, and the
		// whole-program runs must report no cone.
		var wholeProps, smsProps, wholeCone int
		for _, app := range appgen.GenerateCorpus(appgen.Malware, 4, 42) {
			whole, err := core.AnalyzeFiles(context.Background(), app.Files, core.DefaultOptions())
			if err != nil {
				t.Fatalf("%s: %v", app.Name, err)
			}
			wholeProps += whole.Counters.Propagations
			wholeCone += whole.Counters.ConeMethods + whole.Counters.SkippedComponents
			for _, q := range queriesFor(whole.Taint, "sms") {
				want := filteredJSON(t, whole.Taint, q)
				for _, w := range queryWorkers {
					opts := core.DefaultOptions()
					opts.Query = q
					opts.Taint.Workers = w
					res, err := core.AnalyzeFiles(context.Background(), app.Files, opts)
					if err != nil {
						t.Fatalf("%s query %v: %v", app.Name, q.Sinks, err)
					}
					js, err := res.Taint.CanonicalJSON()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(want, js) {
						t.Errorf("%s query %v workers=%d: report differs from filtered whole-program:\nwhole filtered:\n%s\nquery mode:\n%s",
							app.Name, q.Sinks, w, want, js)
					}
					if res.Counters.ConeMethods == 0 && len(res.Taint.Leaks) > 0 {
						t.Errorf("%s query %v: leaks found but ConeMethods = 0; the cone was not wired", app.Name, q.Sinks)
					}
					if w == 1 && q.Sinks[0] == "sms" {
						smsProps += res.Counters.Propagations
					}
				}
			}
		}
		t.Logf("propagations: whole-program %d, sms query %d", wholeProps, smsProps)
		if wholeCone != 0 {
			t.Errorf("whole-program runs reported %d cone methods and skipped components, want 0", wholeCone)
		}
		if smsProps >= wholeProps {
			t.Errorf("the sms query made %d propagations, whole-program %d: the cone pruned nothing", smsProps, wholeProps)
		}
	})
}

// doGetEntries collects the SecuriBench entry points the same way the
// suite runner does.
func doGetEntries(prog *ir.Program) []*ir.Method {
	var entries []*ir.Method
	for _, cls := range prog.Classes() {
		if m := cls.Method("doGet", 2); m != nil && !m.Abstract() {
			entries = append(entries, m)
		}
	}
	return entries
}

// TestQueryRejectsUnknownSelector: a selector matching no configured sink
// rule is a configuration error, not a silently empty analysis.
func TestQueryRejectsUnknownSelector(t *testing.T) {
	files := droidbench.Cases()[0].Files
	opts := core.DefaultOptions()
	opts.Query = core.Query{Sinks: []string{"no-such-sink-label"}}
	_, err := core.AnalyzeFiles(context.Background(), files, opts)
	if err == nil {
		t.Fatal("want error for selector matching no sink rule, got nil")
	}
	if want := "no-such-sink-label"; !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Errorf("error %q does not name the unmatched selector %q", err, want)
	}
}

// TestQueryFingerprintStability: equal queries fingerprint equally
// regardless of order and duplicates; distinct queries differ; the empty
// query is the empty fingerprint (whole-program artifact keys unchanged).
func TestQueryFingerprintStability(t *testing.T) {
	a := core.Query{Sinks: []string{"sms", "log", "sms"}}
	b := core.Query{Sinks: []string{"log", "sms"}}
	if a.Fingerprint() != b.Fingerprint() {
		t.Errorf("order/duplicate-insensitive fingerprints differ: %q vs %q", a.Fingerprint(), b.Fingerprint())
	}
	if a.Fingerprint() == (core.Query{Sinks: []string{"sms"}}).Fingerprint() {
		t.Error("distinct queries share a fingerprint")
	}
	if fp := (core.Query{}).Fingerprint(); fp != "" {
		t.Errorf("empty query fingerprint = %q, want empty", fp)
	}
	for _, q := range []core.Query{a, b} {
		if q.IsAll() {
			t.Errorf("non-empty query %v reports IsAll", q.Sinks)
		}
	}
}
