package scene_test

import (
	"context"
	"encoding/json"
	"sync"
	"testing"

	"flowdroid/internal/appgen"
	"flowdroid/internal/constprop"
	"flowdroid/internal/core"
	"flowdroid/internal/framework"
	"flowdroid/internal/scene"
)

// TestConcurrentScenesShareBaseIndex analyzes appgen Reflection and Play
// apps on several goroutines at once. Each app's scene reads the one
// index over the frozen framework while constprop materializes bridges,
// the lifecycle generator adds its dummy main, both Refresh the scene,
// and pta resolves calls. Under -race it fails if any of that work
// writes to the shared index; it also requires the index to read the
// same afterwards and every report to equal its sequential run.
func TestConcurrentScenesShareBaseIndex(t *testing.T) {
	apps := append(appgen.GenerateCorpus(appgen.Reflection, 4, 1), appgen.GenerateCorpus(appgen.Play, 4, 1)...)
	analyze := func(app appgen.App) (string, bool) {
		res, err := core.AnalyzeFiles(context.Background(), app.Files, core.DefaultOptions())
		if err != nil {
			t.Error(err)
			return "", false
		}
		if res.Status != core.Complete {
			t.Errorf("%s: status %v", app.Name, res.Status)
		}
		report, err := json.Marshal(res.Taint.CanonicalReport())
		if err != nil {
			t.Error(err)
		}
		return string(report), res.App.Program.Class(constprop.BridgesClass) != nil
	}

	base := framework.NewProgram().Base()
	before := scene.BaseIndexDigest(base)
	want := make([]string, len(apps))
	bridged := 0
	for i, app := range apps {
		var b bool
		want[i], b = analyze(app)
		if b {
			bridged++
		}
	}
	if bridged == 0 {
		t.Fatal("no app materialized reflection bridges; the test would not cover a Refresh after constprop")
	}

	const workers = 8
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range apps {
				i := (k + w) % len(apps)
				if got, _ := analyze(apps[i]); got != want[i] {
					t.Errorf("worker %d: %s report differs from its sequential run", w, apps[i].Name)
				}
			}
		}()
	}
	wg.Wait()
	if scene.BaseIndexDigest(base) != before {
		t.Error("the shared framework index changed while apps were analyzed")
	}
}
