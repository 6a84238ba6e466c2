package main

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"flowdroid/internal/appgen"
	"flowdroid/internal/core"
)

// workload is one benchmark input: an appgen population analyzed back to
// back by a single client. README.md records why each one exists and
// which layer it is meant to expose.
type workload struct {
	name    string
	profile appgen.Profile
	// apps is the corpus size drawn per seed. It is large enough that the
	// corpus mean barely moves from seed to seed.
	apps int
	// update re-analyzes the corpus after appgen.MutateMethods against a
	// summary store filled from the unmutated corpus during set-up.
	update bool
}

// updateFraction is the share of methods an app update mutates.
const updateFraction = 0.02

// heldoutOffset moves a seed into the held-out range (see README.md):
// seeds below it are the ones a change is developed against.
const heldoutOffset = 1_000_000_007

// benchTaintProfile is the enlarged stress profile of the repository's
// BenchmarkSmokeTaint: few large apps, so parser and solver work dominate
// the fixed per-app costs.
func benchTaintProfile() appgen.Profile {
	p := appgen.Stress
	p.Name = "benchtaint"
	p.Helpers = appgen.MinMax(40, 40)
	p.NoiseMethods = appgen.MinMax(10, 10)
	p.NoiseStmts = appgen.MinMax(20, 30)
	return p
}

var workloads = []workload{
	{name: "play", profile: appgen.Play, apps: 256},
	{name: "reflection", profile: appgen.Reflection, apps: 256},
	{name: "benchtaint", profile: benchTaintProfile(), apps: 8},
	{name: "update", profile: appgen.Play, apps: 256, update: true},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// corpus is a workload's generated input. apps are the packages the timed
// region analyzes, each carrying appgen's injected ground truth; base is
// the unmutated corpus an update workload fills its store from.
type corpus struct {
	apps    []appgen.App
	base    []appgen.App
	mutated int
}

func makeCorpus(w workload, seed int64) corpus {
	apps := appgen.GenerateCorpus(w.profile, w.apps, seed)
	if !w.update {
		return corpus{apps: apps}
	}
	c := corpus{base: apps, apps: make([]appgen.App, len(apps))}
	for i, a := range apps {
		files, n := appgen.MutateMethods(a.Files, updateFraction, mutateSeed(seed, i))
		a.Files = files // mutation keeps every data flow, so the ground truth holds
		c.apps[i] = a
		c.mutated += n
	}
	return c
}

// mutateSeed derives the per-app mutation seed from the corpus seed.
func mutateSeed(seed int64, i int) int64 { return seed*1009 + int64(i) + 2 }

// analyze runs the production pipeline on one in-memory package, turning
// a panic into an error so one bad app cannot end the run.
func analyze(files map[string]string, opts core.Options) (res *core.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("panic: %v", r)
		}
	}()
	return core.AnalyzeFiles(context.Background(), files, opts)
}

// checkLeaks is the independent correctness check: a run must finish
// complete and find exactly the distinct leaks appgen planted.
func checkLeaks(app appgen.App, complete bool, status any, leaks int) error {
	switch {
	case !complete:
		return fmt.Errorf("%s: status %v", app.Name, status)
	case leaks != app.InjectedLeaks:
		return fmt.Errorf("%s: %d distinct leaks, appgen injected %d", app.Name, leaks, app.InjectedLeaks)
	}
	return nil
}

// checkCore applies checkLeaks to one core.AnalyzeFiles outcome.
func checkCore(app appgen.App, res *core.Result, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", app.Name, err)
	}
	return checkLeaks(app, res.Status == core.Complete, res.Status, len(res.Leaks()))
}

// snapshot holds a summary store's files in memory so every timed pass
// can start from the same store state.
type snapshot struct {
	dir   string
	files map[string][]byte
}

func capture(dir string) (*snapshot, error) {
	s := &snapshot{dir: dir, files: make(map[string][]byte)}
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, p)
		if err != nil {
			return err
		}
		s.files[rel] = data
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("capturing store %s: %w", dir, err)
	}
	return s, nil
}

// restore replaces the store directory with the captured files.
func (s *snapshot) restore() error {
	if err := os.RemoveAll(s.dir); err != nil {
		return fmt.Errorf("restoring store: %w", err)
	}
	for rel, data := range s.files {
		p := filepath.Join(s.dir, rel)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			return fmt.Errorf("restoring store: %w", err)
		}
		if err := os.WriteFile(p, data, 0o644); err != nil {
			return fmt.Errorf("restoring store: %w", err)
		}
	}
	return nil
}
