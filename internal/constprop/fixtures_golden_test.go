package constprop_test

// Analysis-equivalence golden: constant propagation runs over every
// program the repository ships, and every classified reflective site is
// pinned in testdata/sites.golden, so a change to the fixpoint that moves
// any site, target, constructor or soundness entry fails here. Refresh
// only after an intended change to what the pass resolves:
//
//	UPDATE_GOLDEN=1 go test ./internal/constprop -run FixturesGolden

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"

	"flowdroid/internal/apk"
	"flowdroid/internal/appgen"
	"flowdroid/internal/constprop"
	"flowdroid/internal/droidbench"
	"flowdroid/internal/insecurebank"
	"flowdroid/internal/ir"
	"flowdroid/internal/scene"
	"flowdroid/internal/securibench"
	"flowdroid/internal/testapps"
)

const sitesGolden = "testdata/sites.golden"

// reflectionApps is the number of appgen Reflection apps drawn per seed.
const reflectionApps = 64

type fixture struct {
	name string
	load func() (*ir.Program, error)
}

func appFixture(name string, files map[string]string) fixture {
	return fixture{name: name, load: func() (*ir.Program, error) {
		app, err := apk.LoadFiles(files)
		if err != nil {
			return nil, err
		}
		return app.Program, nil
	}}
}

// shippedFixtures lists the programs irlint -fixtures walks (test apps,
// InsecureBank, DroidBench, SecuriBench, appgen Play/Malware/Stress seed
// 1), the reflective test apps and DroidBench extension cases, and appgen
// Reflection corpora of seeds 1-3.
func shippedFixtures() []fixture {
	var out []fixture
	for _, a := range []struct {
		name  string
		files map[string]string
	}{
		{"LeakageApp", testapps.LeakageApp},
		{"LocationApp", testapps.LocationApp},
		{"ReflectionApp", testapps.ReflectionApp},
		{"DynamicReflectionApp", testapps.DynamicReflectionApp},
	} {
		out = append(out, appFixture("testapps/"+a.name, a.files))
	}
	out = append(out, appFixture("insecurebank", insecurebank.Files))
	for _, c := range droidbench.Cases() {
		out = append(out, appFixture("droidbench/"+c.Name, c.Files))
	}
	for _, c := range droidbench.ExtraCases() {
		out = append(out, appFixture("droidbench-extra/"+c.Name, c.Files))
	}
	for _, c := range securibench.Cases() {
		out = append(out, fixture{
			name: "securibench/" + c.Name,
			load: func() (*ir.Program, error) { return securibench.Program(c) },
		})
	}
	for _, p := range []struct {
		name    string
		profile appgen.Profile
	}{{"play", appgen.Play}, {"malware", appgen.Malware}, {"stress", appgen.Stress}} {
		for _, app := range appgen.GenerateCorpus(p.profile, 3, 1) {
			out = append(out, appFixture("appgen/"+p.name+"/"+app.Name, app.Files))
		}
	}
	for seed := int64(1); seed <= 3; seed++ {
		for _, app := range appgen.GenerateCorpus(appgen.Reflection, reflectionApps, seed) {
			out = append(out, appFixture(fmt.Sprintf("appgen/reflection/seed%d/%s", seed, app.Name), app.Files))
		}
	}
	return out
}

// writeSites renders res one site per line under a header naming the
// program and its resolved-site count.
func writeSites(sb *strings.Builder, name string, res *constprop.Result) {
	fmt.Fprintf(sb, "== %s resolved=%d\n", name, res.Report.ResolvedSites)
	for _, s := range res.Sites {
		fmt.Fprintf(sb, "%s:%d %s", s.In, s.Stmt.Line(), s.API)
		if len(s.Targets) > 0 {
			ts := make([]string, len(s.Targets))
			for i, t := range s.Targets {
				ts[i] = t.String()
			}
			fmt.Fprintf(sb, " targets=[%s]", strings.Join(ts, " "))
		}
		if len(s.Ctors) > 0 {
			fmt.Fprintf(sb, " ctors=[%s]", strings.Join(s.Ctors, " "))
		}
		if s.Unresolved != nil {
			fmt.Fprintf(sb, " unresolved=%q", s.Unresolved.Reason)
		}
		sb.WriteByte('\n')
	}
}

func TestFixturesGolden(t *testing.T) {
	var got strings.Builder
	most, mostName := 0, ""
	for _, f := range shippedFixtures() {
		prog, err := f.load()
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		res, rounds, _ := constprop.AnalyzeStats(context.Background(), scene.New(prog))
		if res.Truncated {
			t.Fatalf("%s: analysis truncated without a deadline", f.name)
		}
		if rounds > most {
			most, mostName = rounds, f.name
		}
		writeSites(&got, f.name, res)
	}
	t.Logf("most fixpoint rounds: %d (%s)", most, mostName)
	if os.Getenv("UPDATE_GOLDEN") == "1" {
		if err := os.WriteFile(sitesGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(sitesGolden)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create it)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	have := strings.Split(strings.TrimSuffix(got.String(), "\n"), "\n")
	if len(have) != len(want) {
		t.Errorf("%d lines rendered, golden file has %d", len(have), len(want))
	}
	for i := 0; i < len(want) && i < len(have); i++ {
		if have[i] != want[i] {
			t.Fatalf("line %d differs:\n got %s\nwant %s", i+1, have[i], want[i])
		}
	}
}
