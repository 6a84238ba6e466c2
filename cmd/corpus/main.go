// Command corpus regenerates the RQ3 experiments: synthetic Google-Play-
// like and malware-like app populations are generated deterministically,
// analyzed with the default configuration, and summarized the way Section
// 6.3 reports them (apps leaking, leaks per app, sink distribution,
// per-app analysis times).
//
// Per-app failures never abort the batch: a panicking, timed-out or
// budget-exhausted app is counted in the abnormal-outcomes section of the
// summary and the remaining apps are analyzed normally.
//
// Usage:
//
//	corpus -profile play -n 500 -seed 1
//	corpus -profile malware -n 1000 -seed 2
//	corpus -n 50 -timeout 2s -max-propagations 500000 -degrade
//	corpus -profile malware -n 100 -sinks sms
//
// With -sinks the batch runs in demand-driven query mode: each app is
// analyzed only for the named sink selectors, the summary reports the
// aggregated reachability-cone size and skipped components, and the
// injected-ground-truth recall check is suspended (the ground truth
// spans all sinks, the query does not).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"flowdroid/internal/appgen"
	"flowdroid/internal/core"
	"flowdroid/internal/metrics"
)

func main() {
	opts := core.DefaultOptions()
	core.RegisterFlags(flag.CommandLine, &opts,
		"max-propagations", "degrade", "workers", "lint", "sinks", "summary-dir",
		"no-string-carriers", "no-reflection")
	var (
		profile     = flag.String("profile", "malware", "population profile: play, malware, or stress")
		n           = flag.Int("n", 100, "number of apps to generate and analyze")
		seed        = flag.Int64("seed", 1, "generation seed")
		export      = flag.String("export", "", "also write the generated app packages under this directory")
		timeout     = flag.Duration("timeout", 0, "per-app analysis deadline (0 = none)")
		forcePanic  = flag.String("force-panic", "", "inject a panic while analyzing the named app (tests batch isolation)")
		traceFile   = flag.String("trace", "", "write a JSONL span trace of every app's pipeline to this file")
		showMetrics = flag.Bool("metrics", false, "print the corpus-aggregated metrics snapshot as JSON after the summary")
	)
	flag.Parse()

	var p appgen.Profile
	switch *profile {
	case "play":
		p = appgen.Play
	case "malware":
		p = appgen.Malware
	case "stress":
		p = appgen.Stress
	case "reflection":
		p = appgen.Reflection
	default:
		fmt.Fprintf(os.Stderr, "unknown profile %q (want play, malware, stress, or reflection)\n", *profile)
		os.Exit(64)
	}
	if *export != "" {
		if _, err := appgen.ExportCorpus(p, *n, *seed, *export); err != nil {
			fmt.Fprintln(os.Stderr, "corpus:", err)
			os.Exit(2)
		}
		fmt.Printf("wrote %d app packages under %s\n", *n, *export)
	}
	ro := appgen.RunOptions{Options: &opts, Timeout: *timeout, FaultInject: *forcePanic}
	// An interrupt (SIGINT/SIGTERM) cancels the batch context: the app
	// being analyzed stops at its next stage boundary, the apps never
	// attempted are counted in the summary's incomplete line, and the
	// partial summary still prints instead of the process dying
	// mid-write. A second signal kills the process the default way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// One recorder is shared by every app in the batch: counters
	// accumulate corpus-wide, which is exactly the rollup the summary
	// wants. With neither flag set the pipelines run uninstrumented.
	var rec *metrics.Recorder
	if *traceFile != "" || *showMetrics {
		rec = metrics.New()
		ctx = metrics.Into(ctx, rec)
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "corpus:", err)
			os.Exit(64)
		}
		rec.SetTrace(metrics.NewTrace(f))
	}
	stats, err := appgen.RunCorpusWith(ctx, p, *n, *seed, ro)
	if err != nil {
		fmt.Fprintln(os.Stderr, "corpus:", err)
		os.Exit(2)
	}
	fmt.Print(stats.Render())
	if *showMetrics {
		out, err := json.MarshalIndent(rec.Snapshot(), "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "corpus:", err)
			os.Exit(2)
		}
		fmt.Printf("metrics:\n%s\n", out)
	}
	if ctx.Err() != nil {
		// An interrupted batch reported partial results above; exit 2
		// (incomplete) so scripts never mistake it for a full run whose
		// ground truth failed to match.
		fmt.Fprintf(os.Stderr, "corpus: interrupted, %d app(s) never attempted\n", stats.Incomplete)
		os.Exit(2)
	}
	// Under a sink query the injected ground truth spans all sinks while
	// the report is restricted to the queried ones; under -no-reflection
	// the injected reflective leaks are intentionally invisible. The
	// exact-recall check only applies to full whole-program runs.
	if opts.Query.IsAll() && opts.ResolveReflection && stats.TotalFound != stats.TotalInjected {
		fmt.Printf("WARNING: found %d leaks but injected %d\n",
			stats.TotalFound, stats.TotalInjected)
		os.Exit(1)
	}
}
