package scene_test

import (
	"testing"

	"flowdroid/internal/apk"
	"flowdroid/internal/scene"
	"flowdroid/internal/testapps"
)

// sceneAllocBudget is the allocation ceiling for building a scene over
// LeakageApp, its resolver, a Refresh and the resolver again. The shared
// framework index is built once per process, outside the measurement,
// so the count covers the app's own classes only: it was 73 when the
// budget was set, against 1,465 when every scene indexed the framework
// too. A per-app cost that grows back toward framework size fails here.
const sceneAllocBudget = 200

func TestSceneAllocBudget(t *testing.T) {
	app, err := apk.LoadFiles(testapps.LeakageApp)
	if err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(10, func() {
		sc := scene.New(app.Program)
		sc.Resolver()
		sc.Refresh()
		sc.Resolver()
	})
	t.Logf("scene, resolver, refresh, resolver on LeakageApp: %.0f allocations", got)
	if got > sceneAllocBudget {
		t.Errorf("scene, resolver, refresh, resolver on LeakageApp made %.0f allocations, budget %d", got, sceneAllocBudget)
	}
}
