// Command perfbench is the repository benchmark: it drives the real
// core.AnalyzeFiles path over appgen corpora as a closed loop with one
// client (apps analyzed back to back, default options, sequential
// solver) and checks every analysis against appgen's injected ground
// truth. With -trace 1 it instead replays the pipeline layer by layer
// through each layer's public functions, timing every call from outside,
// and checks that the replay's canonical report is byte-identical to
// core's.
//
// Run it through run.py, which builds this module inside the checkout:
//
//	python3 perfbench/run.py --workload play --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is the result object; the line before
// it carries the run's provenance. README.md explains the workloads, the
// metrics and the predictions later changes are judged against.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"flowdroid/internal/core"
	"flowdroid/internal/summarystore"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// provenance is everything needed to reproduce or question a result.
type provenance struct {
	Workload       string         `json:"workload"`
	Seed           int64          `json:"seed"`
	SeedSet        string         `json:"seed_set"`
	CorpusSeed     int64          `json:"corpus_seed"`
	MutateSeeds    string         `json:"mutate_seeds,omitempty"`
	MutatedMethods int            `json:"mutated_methods,omitempty"`
	Apps           int            `json:"apps"`
	Passes         int            `json:"passes"`
	Samples        map[string]int `json:"samples"`
	Trace          int            `json:"trace"`
	Seconds        float64        `json:"seconds"`
	Setups         int            `json:"setups"`
	GOMAXPROCS     int            `json:"gomaxprocs"`
	NumCPU         int            `json:"num_cpu"`
	GoVersion      string         `json:"go_version"`
	Commit         string         `json:"commit"`
	SourceDigest   string         `json:"source_digest"`
	// Uncalibrated holds the timings as the wall clock read them, before
	// the calibration of calib.go.
	Uncalibrated map[string]float64 `json:"uncalibrated,omitempty"`
	Errors       []string           `json:"errors,omitempty"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: play, reflection, benchtaint or update")
	seed := fl.Int64("seed", 1, "corpus seed")
	heldout := fl.Bool("heldout", false, "draw the corpus from the held-out seed range")
	seconds := fl.Float64("seconds", 10, "measured time; whole corpus passes run until it is spent (0: one pass)")
	trace := fl.Int("trace", 0, "0: untraced end-to-end run; 1: traced layer-by-layer replay")
	setups := fl.Int("setups", 3, "set-up repetitions; setup_s is their median")
	workdir := fl.String("workdir", ".perfbench", "directory for summary stores, traces and result files")
	commit := fl.String("commit", "unknown", "commit the benchmarked tree was taken from")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || (*trace != 0 && *trace != 1) || *setups < 1 || *seconds < 0 {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, trace %d, setups %d)\n", *name, *trace, *setups)
		return 2
	}

	corpusSeed, seedSet := *seed, "dev"
	if *heldout {
		corpusSeed, seedSet = *seed+heldoutOffset, "heldout"
	}
	dir, err := filepath.Abs(filepath.Join(*workdir, fmt.Sprintf("%s-%d", w.name, os.Getpid())))
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	b := &bench{w: w, seed: corpusSeed, workdir: *workdir, dir: dir, traced: *trace == 1}
	prov := provenance{
		Workload: w.name, Seed: *seed, SeedSet: seedSet, CorpusSeed: corpusSeed,
		Apps: w.apps, Trace: *trace, Seconds: *seconds,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GoVersion: runtime.Version(), Commit: *commit, SourceDigest: sourceDigest("."),
	}
	if w.update {
		prov.MutateSeeds = fmt.Sprintf("corpus_seed*1009+app_index+2, fraction %g", updateFraction)
	}

	// Set-up runs several times in a fresh state; the median is setup_s.
	// The traced run reports no setup_s and sets up once.
	n := *setups
	if b.traced {
		n = 1
	}
	var setupTimes, rawSetupTimes []float64
	for i := 0; i < n; i++ {
		cal, raw, err := b.setup()
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: set-up: %v\n", err)
			return 1
		}
		setupTimes = append(setupTimes, cal)
		rawSetupTimes = append(rawSetupTimes, raw)
	}
	prov.Setups = n
	prov.MutatedMethods = b.c.mutated

	var res result
	if b.traced {
		res, err = b.traceRun(*seconds, &prov, stdout)
	} else {
		res, err = b.measure(*seconds, &prov)
		if err == nil {
			res.Metrics["setup_s"] = metric{median(setupTimes), "s"}
			prov.Samples["setup_s"] = len(setupTimes)
			prov.Uncalibrated["setup_s"] = median(rawSetupTimes)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	res.Correct = b.failedChecks == 0
	prov.Errors = b.errors
	for _, e := range prov.Errors {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", e)
	}

	provLine, err := json.Marshal(map[string]any{"provenance": prov})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	resLine, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	writeResultFile(*workdir, w.name, *seed, *trace, provLine, resLine, stderr)
	fmt.Fprintf(stdout, "%s\n%s\n", provLine, resLine)
	return 0
}

// bench is one workload's state across set-up and measurement.
type bench struct {
	w       workload
	seed    int64
	workdir string // result and trace files
	dir     string // this process's summary stores, removed at exit
	traced  bool
	c       corpus

	// update workload: the store core.AnalyzeFiles uses, and (traced runs)
	// the replay's own store, each with the state every pass starts from.
	coreStore   *summarystore.Store
	coreSnap    *snapshot
	replayStore *summarystore.Store
	replaySnap  *snapshot

	// failedChecks counts every failed check, in set-up too; errors keeps
	// the first maxErrors of them for the provenance line.
	failedChecks int
	errors       []string
}

// maxErrors caps how many check failures are kept for the report.
const maxErrors = 20

// fail records a failed check. Any failed check makes the run incorrect.
func (b *bench) fail(msg string) {
	b.failedChecks++
	if len(b.errors) < maxErrors {
		b.errors = append(b.errors, msg)
	}
}

func (b *bench) options() core.Options {
	opts := core.DefaultOptions()
	opts.SummaryStore = b.coreStore
	return opts
}

// setup generates the corpus, fills the update workload's stores from the
// unmutated corpus, and warms up with one untimed pass over the timed
// input. Every analysis it makes is checked like a timed one.
func (b *bench) setup() (calibrated, raw float64, err error) {
	// Drop the previous set-up's state before timing, so that set-ups do
	// not pile up in the heap and inflate peak RSS.
	b.c = corpus{}
	b.coreStore, b.coreSnap, b.replayStore, b.replaySnap = nil, nil, nil, nil
	runtime.GC()
	start := time.Now()
	var sm speedometer
	sm.tick(0)
	// Set the times on every return; they leave out the reference chunks.
	defer func() {
		raw = (time.Since(start) - sm.ref).Seconds()
		calibrated = raw * sm.factor()
	}()
	last := time.Now()
	lap := func() {
		now := time.Now()
		sm.tick(now.Sub(last))
		last = time.Now()
	}
	b.c = makeCorpus(b.w, b.seed)
	lap()
	if b.w.update {
		dir := filepath.Join(b.dir, "core-store")
		if err := os.RemoveAll(dir); err != nil {
			return 0, 0, err
		}
		b.coreStore = summarystore.Open(dir)
		opts := b.options()
		for _, a := range b.c.base {
			res, err := analyze(a.Files, opts)
			if err := checkCore(a, res, err); err != nil {
				b.fail("set-up: " + err.Error())
			}
			lap()
		}
		if b.coreSnap, err = capture(dir); err != nil {
			return 0, 0, err
		}
		if b.traced {
			if err := b.fillReplayStore(); err != nil {
				return 0, 0, err
			}
		}
	}
	if err := b.restoreStores(); err != nil {
		return 0, 0, err
	}
	opts := b.options()
	for _, a := range b.c.apps {
		res, err := analyze(a.Files, opts)
		if err := checkCore(a, res, err); err != nil {
			b.fail("set-up: " + err.Error())
		}
		lap()
	}
	return 0, 0, nil
}

// restoreStores puts every store back into its post-fill state.
func (b *bench) restoreStores() error {
	for _, s := range []*snapshot{b.coreSnap, b.replaySnap} {
		if s != nil {
			if err := s.restore(); err != nil {
				return err
			}
		}
	}
	return nil
}

// passCounts are the summary-store counters of one corpus pass. They must
// repeat exactly from pass to pass: every pass starts from the same store.
type passCounts struct{ hits, misses int }

// measure is the untraced closed loop: whole corpus passes until the time
// is spent, each app timed from in-memory package to final leak report.
// Timings are calibrated per pass (see calib.go).
func (b *bench) measure(seconds float64, prov *provenance) (result, error) {
	opts := b.options()
	var lat, rawLat []float64
	var busy, rawBusy float64 // seconds: calibrated, measured
	var allocBytes uint64
	var refChunks int
	var refTime time.Duration
	var first *passCounts
	var res result
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	passes := 0
	for passes == 0 || time.Now().Before(deadline) {
		if err := b.restoreStores(); err != nil {
			return result{}, err
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		var sm speedometer
		sm.tick(0)
		var pc passCounts
		var pass []float64
		for _, a := range b.c.apps {
			t0 := time.Now()
			r, err := analyze(a.Files, opts)
			d := time.Since(t0)
			sm.tick(d)
			pass = append(pass, d.Seconds())
			res.Attempted++
			if err := checkCore(a, r, err); err != nil {
				res.Failed++
				b.fail(err.Error())
				continue
			}
			k := r.Counters
			pc.hits += k.SummaryHits
			pc.misses += k.SummaryMisses + k.SummaryInvalidated + k.SummaryCorrupt
		}
		runtime.ReadMemStats(&m1)
		allocBytes += m1.TotalAlloc - m0.TotalAlloc - sm.bytes
		f := sm.factor()
		refChunks += sm.chunks
		refTime += sm.ref
		for _, d := range pass {
			rawBusy += d
			busy += d * f
			rawLat = append(rawLat, d*1e3)
			lat = append(lat, d*f*1e3)
		}
		if first == nil {
			first = &pc
		} else if pc != *first {
			b.fail(fmt.Sprintf("store counters drifted: pass %d had %d hits/%d misses, pass 1 had %d/%d",
				passes+1, pc.hits, pc.misses, first.hits, first.misses))
		}
		passes++
	}
	if b.w.update && first.hits == 0 {
		b.fail("update workload made no summary-store hits")
	}
	sort.Float64s(lat)
	sort.Float64s(rawLat)
	completed := float64(res.Attempted - res.Failed)
	res.Metrics = map[string]metric{
		"apps_per_s":       {completed / busy, "1/s"},
		"app_ms.p50":       {quantile(lat, 0.50), "ms"},
		"app_ms.p90":       {quantile(lat, 0.90), "ms"},
		"alloc_mb_per_app": {float64(allocBytes) / 1e6 / float64(res.Attempted), "MB"},
		"peak_rss_mb":      {peakRSSMB(), "MB"},
		"completed_ratio":  {completed / float64(res.Attempted), "ratio"},
	}
	prov.Passes = passes
	prov.Samples = map[string]int{
		"apps_per_s": res.Attempted, "app_ms.p50": len(lat), "app_ms.p90": len(lat),
		"alloc_mb_per_app": res.Attempted, "peak_rss_mb": 1, "completed_ratio": res.Attempted,
	}
	prov.Uncalibrated = map[string]float64{
		"apps_per_s":   completed / rawBusy,
		"app_ms.p50":   quantile(rawLat, 0.50),
		"app_ms.p90":   quantile(rawLat, 0.90),
		"ref_chunk_ms": refTime.Seconds() * 1e3 / float64(refChunks),
	}
	return res, nil
}

// quantile interpolates linearly between the closest ranks of sorted xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// peakRSSMB is the process's peak resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// sourceDigest fingerprints the analyzer's sources (go.mod and every .go
// file under internal/), so a result identifies the code it measured
// even where no commit is known.
func sourceDigest(root string) string {
	h := sha256.New()
	var files []string
	files = append(files, filepath.Join(root, "go.mod"))
	_ = filepath.WalkDir(filepath.Join(root, "internal"), func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(p, ".go") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// writeResultFile keeps the run's provenance and result next to its trace.
func writeResultFile(workdir, name string, seed int64, trace int, prov, res []byte, stderr io.Writer) {
	p := filepath.Join(workdir, fmt.Sprintf("result-%s-seed%d-trace%d.json", name, seed, trace))
	data := append(append(append(prov, '\n'), res...), '\n')
	err := os.MkdirAll(workdir, 0o755)
	if err == nil {
		err = os.WriteFile(p, data, 0o644)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: writing %s: %v\n", p, err)
	}
}
