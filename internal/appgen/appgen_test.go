package appgen

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"flowdroid/internal/core"
)

func TestDeterminism(t *testing.T) {
	a := GenerateCorpus(Malware, 5, 42)
	b := GenerateCorpus(Malware, 5, 42)
	for i := range a {
		if a[i].Files["classes.ir"] != b[i].Files["classes.ir"] {
			t.Errorf("app %d differs between runs with the same seed", i)
		}
		if a[i].InjectedLeaks != b[i].InjectedLeaks {
			t.Errorf("app %d ground truth differs", i)
		}
	}
	c := GenerateCorpus(Malware, 5, 43)
	same := true
	for i := range a {
		if a[i].Files["classes.ir"] != c[i].Files["classes.ir"] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical corpora")
	}
}

// TestGroundTruthRecovered checks end to end, across a sample of both
// profiles, that the analysis finds exactly the injected flows: no false
// positives, no false negatives.
func TestGroundTruthRecovered(t *testing.T) {
	for _, p := range []Profile{Play, Malware} {
		apps := GenerateCorpus(p, 15, 7)
		for _, app := range apps {
			res, err := core.AnalyzeFiles(context.Background(), app.Files, core.DefaultOptions())
			if err != nil {
				t.Fatalf("%s: %v", app.Name, err)
			}
			if got := len(res.Leaks()); got != app.InjectedLeaks {
				t.Errorf("%s (%s): found %d leaks, injected %d (%v)",
					app.Name, p.Name, got, app.InjectedLeaks, app.LeakKinds)
			}
		}
	}
}

func TestProfileShapes(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var playClasses, malClasses int
	const n = 40
	for i := 0; i < n; i++ {
		playClasses += Generate(r, Play, i).Classes
	}
	r = rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		malClasses += Generate(r, Malware, i).Classes
	}
	if playClasses <= malClasses {
		t.Errorf("play apps should be larger: %d vs %d classes", playClasses, malClasses)
	}
}

// TestMalwareCorpusStats reproduces the RQ3b shape: close to the paper's
// 1.85 leaks per malware sample, dominated by SMS and network sinks, with
// malware apps analyzing faster than Play apps.
func TestMalwareCorpusStats(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus run is slow")
	}
	mal, err := RunCorpus(Malware, 60, 2)
	if err != nil {
		t.Fatal(err)
	}
	if mal.TotalFound != mal.TotalInjected {
		t.Errorf("found %d != injected %d", mal.TotalFound, mal.TotalInjected)
	}
	if avg := mal.AvgLeaksPerApp(); avg < 1.4 || avg > 2.3 {
		t.Errorf("malware leaks/app = %.2f, want ≈1.85", avg)
	}
	if mal.BySink["sms"] == 0 {
		t.Error("malware corpus should leak via SMS")
	}
	if mal.BySink["preferences"] != 0 {
		t.Error("malware profile should not produce preference leaks")
	}

	play, err := RunCorpus(Play, 30, 3)
	if err != nil {
		t.Fatal(err)
	}
	if play.BySink["sms"] != 0 {
		t.Error("play corpus must not exfiltrate via SMS")
	}
	if play.BySink["log"] == 0 {
		t.Error("play corpus should show accidental log leaks")
	}
	if play.AvgTime() <= mal.AvgTime() {
		t.Logf("warning: play avg %v not slower than malware avg %v (small sample)",
			play.AvgTime(), mal.AvgTime())
	}
	t.Logf("\n%s\n%s", mal.Render(), play.Render())
}

// TestReflectionGroundTruthRecovered: with reflection resolution on (the
// default), every planted leak of the reflection profile, the
// StringBuilder-assembled chain included, is found with no false
// positive, and genuinely dynamic chains surface as unresolved soundness
// entries instead of leaks.
func TestReflectionGroundTruthRecovered(t *testing.T) {
	var reflective, dynamic int
	for _, app := range GenerateCorpus(Reflection, 15, 11) {
		res, err := core.AnalyzeFiles(context.Background(), app.Files, core.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		if got := len(res.Leaks()); got != app.InjectedLeaks {
			t.Errorf("%s: found %d leaks, injected %d (%v)", app.Name, got, app.InjectedLeaks, app.LeakKinds)
		}
		if app.ReflectiveLeaks > 0 {
			reflective++
			if res.Soundness == nil || res.Soundness.ResolvedSites == 0 {
				t.Errorf("%s: reflective leaks planted but no resolved sites reported", app.Name)
			}
		}
		if app.DynamicReflectiveChains > 0 {
			dynamic++
			if res.Soundness == nil || len(res.Soundness.Unresolved) == 0 {
				t.Errorf("%s: dynamic chain planted but soundness report is empty", app.Name)
			}
		}
	}
	if reflective == 0 || dynamic == 0 {
		t.Fatalf("corpus sample exercised %d reflective and %d dynamic apps; want both (adjust the seed)", reflective, dynamic)
	}
}

// TestReflectionOffMissesReflectiveLeaks: the same corpus under
// -no-reflection finds exactly the non-reflective leaks and no soundness
// report, the soundness gap made measurable. An app with no reflective
// surface reports byte-identically in both modes.
func TestReflectionOffMissesReflectiveLeaks(t *testing.T) {
	off := core.DefaultOptions()
	off.ResolveReflection = false
	plain := 0
	for _, app := range GenerateCorpus(Reflection, 15, 11) {
		blind, err := core.AnalyzeFiles(context.Background(), app.Files, off)
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		if got, want := len(blind.Leaks()), app.InjectedLeaks-app.ReflectiveLeaks; got != want {
			t.Errorf("%s: reflection off found %d leaks, want %d of %d (%v)", app.Name, got, want, app.InjectedLeaks, app.LeakKinds)
		}
		if blind.Soundness != nil {
			t.Errorf("%s: soundness report present with reflection off", app.Name)
		}
		if app.ReflectiveLeaks > 0 || app.DynamicReflectiveChains > 0 {
			continue
		}
		plain++
		on, err := core.AnalyzeFiles(context.Background(), app.Files, core.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		a, errA := on.Taint.CanonicalJSON()
		b, errB := blind.Taint.CanonicalJSON()
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			t.Errorf("%s: no reflective surface, but the reports differ across modes (%v, %v):\n%s\nvs\n%s", app.Name, errA, errB, a, b)
		}
	}
	if plain == 0 {
		t.Fatal("corpus sample has no reflection-free app (adjust the seed)")
	}
}
