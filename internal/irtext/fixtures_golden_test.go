package irtext_test

// Parse-equivalence golden: every program the repository ships is parsed,
// linked and digested, and the digests are pinned in
// testdata/fixtures.golden. The digest covers the printed form of every
// app class, each class's declaring file and line, each statement's line
// and label, and each local's name, type and Declared flag, so a front-end
// change that alters any of them fails here. Refresh only after an
// intended change to the IR the parser builds:
//
//	UPDATE_GOLDEN=1 go test ./internal/irtext -run FixturesGolden

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"flowdroid/internal/apk"
	"flowdroid/internal/appgen"
	"flowdroid/internal/droidbench"
	"flowdroid/internal/framework"
	"flowdroid/internal/insecurebank"
	"flowdroid/internal/ir"
	"flowdroid/internal/securibench"
	"flowdroid/internal/testapps"
)

const fixturesGolden = "testdata/fixtures.golden"

// fixture is one shipped program: a name, a loader for its linked
// program and the program's own .ir sources by file name. all asks for
// the shared (framework) classes to be digested too; otherwise only the
// program's own classes are.
type fixture struct {
	name  string
	load  func() (*ir.Program, error)
	files map[string]string
	all   bool
}

func appFixture(name string, files map[string]string) fixture {
	return fixture{name: name, files: files, load: func() (*ir.Program, error) {
		app, err := apk.LoadFiles(files)
		if err != nil {
			return nil, err
		}
		return app.Program, nil
	}}
}

// shippedFixtures lists every program the repository ships: the set
// irlint -fixtures walks (test apps, InsecureBank, DroidBench,
// SecuriBench, appgen corpora), the framework stubs, the DroidBench
// extension cases, and appgen corpora of seeds 1-3 for the Play,
// Malware, Reflection and Stress profiles.
func shippedFixtures() []fixture {
	out := []fixture{{name: "framework", all: true, load: func() (*ir.Program, error) {
		return framework.NewProgram(), nil
	}}}
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
			name:  "securibench/" + c.Name,
			files: map[string]string{c.Name + ".ir": c.Source},
			load:  func() (*ir.Program, error) { return securibench.Program(c) },
		})
	}
	for _, p := range []struct {
		name    string
		profile appgen.Profile
	}{{"play", appgen.Play}, {"malware", appgen.Malware}, {"reflection", appgen.Reflection}, {"stress", appgen.Stress}} {
		for seed := int64(1); seed <= 3; seed++ {
			for _, app := range appgen.GenerateCorpus(p.profile, 3, seed) {
				out = append(out, appFixture(fmt.Sprintf("appgen/%s/seed%d/%s", p.name, seed, app.Name), app.Files))
			}
		}
	}
	return out
}

// digestProgram writes the parse-relevant facts of prog's classes to w.
func digestProgram(w io.Writer, prog *ir.Program, all bool) {
	for _, c := range prog.Classes() {
		if c.Shared() && !all {
			continue
		}
		fmt.Fprintf(w, "@ %s:%d\n%s", c.File, c.Line, ir.PrintClass(c))
		for _, m := range c.Methods() {
			fmt.Fprintf(w, "method %s\n", m)
			for i, s := range m.Body() {
				fmt.Fprintf(w, "  stmt %d line %d label %q\n", i, s.Line(), s.Label())
			}
			for _, l := range m.Locals() {
				fmt.Fprintf(w, "  local %s: %s declared=%v\n", l.Name, l.Type, l.Declared)
			}
		}
	}
}

func TestFixturesGolden(t *testing.T) {
	var got strings.Builder
	for _, f := range shippedFixtures() {
		prog, err := f.load()
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		h := sha256.New()
		digestProgram(h, prog, f.all)
		fmt.Fprintf(&got, "%s %x\n", f.name, h.Sum(nil))
	}
	if os.Getenv("UPDATE_GOLDEN") == "1" {
		if err := os.WriteFile(fixturesGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(fixturesGolden)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create it)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	have := strings.Split(strings.TrimSuffix(got.String(), "\n"), "\n")
	if len(have) != len(want) {
		t.Fatalf("%d fixtures digested, golden file has %d", len(have), len(want))
	}
	for i := range want {
		if have[i] != want[i] {
			t.Errorf("parse digest differs:\n got %s\nwant %s", have[i], want[i])
		}
	}
}
