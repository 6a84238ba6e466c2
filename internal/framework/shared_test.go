package framework_test

import (
	"context"
	"sync"
	"testing"

	"flowdroid/internal/apk"
	"flowdroid/internal/callbacks"
	"flowdroid/internal/framework"
	"flowdroid/internal/ir"
	"flowdroid/internal/lifecycle"
	"flowdroid/internal/testapps"
)

func TestProgramsShareFrameworkClasses(t *testing.T) {
	a, b := framework.NewProgram(), framework.NewProgram()
	obj := a.Class("java.lang.Object")
	if obj == nil || !obj.Shared() || b.Class("java.lang.Object") != obj {
		t.Fatal("programs must share one frozen java.lang.Object")
	}
	// The stub model declares no fields, so member sharing is checked on
	// a method.
	if a.ResolveMethod("java.lang.String", "toString", 0) != obj.Method("toString", 0) ||
		b.ResolveMethod("java.lang.String", "toString", 0) != obj.Method("toString", 0) {
		t.Error("programs must resolve to the shared java.lang.Object.toString")
	}

	ir.NewClassIn(a, "com.app.Main", framework.ActivityClass)
	if b.Class("com.app.Main") != nil || framework.NewProgram().Class("com.app.Main") != nil {
		t.Error("a class added to one program leaked into another")
	}
}

// TestConcurrentProgramsOnSharedFramework runs the per-app work that
// touches the shared framework classes on several goroutines at once:
// apk.LoadFiles forks the framework, parses the app into the fork and
// links it, then the lifecycle generator adds its dummy main and relinks.
// Under -race it fails if any of that work writes to a shared class.
func TestConcurrentProgramsOnSharedFramework(t *testing.T) {
	const n = 8
	mains := make([]string, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			app, err := apk.LoadFiles(testapps.LeakageApp)
			if err != nil {
				t.Error(err)
				return
			}
			main, err := lifecycle.Generate(app, callbacks.Discover(context.Background(), app), lifecycle.DefaultOptions())
			if err != nil {
				t.Error(err)
				return
			}
			mains[i] = ir.PrintClass(main.Class)
		}()
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if mains[i] != mains[0] {
			t.Errorf("dummy main %d differs from dummy main 0:\n%s\nvs\n%s", i, mains[i], mains[0])
		}
	}
	if framework.NewProgram().Class(lifecycle.DummyMainClass) != nil {
		t.Error("the dummy main leaked into the shared framework")
	}
}
