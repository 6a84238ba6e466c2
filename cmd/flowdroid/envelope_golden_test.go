package main

// Golden-file test for the -json envelope: the exact bytes
// `flowdroid -json -workers 1` prints for InsecureBank and for two
// reflection fixtures with non-empty soundness blocks (one resolved, one
// left opaque) are pinned under testdata/. The sequential solver makes
// the path witnesses deterministic, so the whole envelope is comparable
// byte for byte.
// Refresh after an intentional schema change with:
//
//	UPDATE_GOLDEN=1 go test ./cmd/flowdroid -run EnvelopeGolden

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"flowdroid/internal/droidbench"
)

// runMainEnv makes the test binary act as the flowdroid command: a child
// process started with it set runs main on its own arguments.
const runMainEnv = "FLOWDROID_GOLDEN_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// flowdroidJSON runs the command in a child process and returns its
// stdout and exit code.
func flowdroidJSON(t *testing.T, args ...string) ([]byte, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-json", "-workers", "1"}, args...)...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return stdout.Bytes(), 0
	case errors.As(err, &exit):
		return stdout.Bytes(), exit.ExitCode()
	}
	t.Fatalf("flowdroid %v: %v\n%s", args, err, stderr.Bytes())
	return nil, 0
}

// writeApp exports an in-memory app package into a fresh directory.
func writeApp(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func reflectionCase(t *testing.T, name string) droidbench.Case {
	t.Helper()
	for _, c := range droidbench.ReflectionCases() {
		if c.Name == name {
			return c
		}
	}
	t.Fatalf("no reflection case %s", name)
	return droidbench.Case{}
}

func TestEnvelopeGolden(t *testing.T) {
	cases := []struct {
		golden string
		args   func(t *testing.T) []string
		exit   int
	}{
		{"testdata/insecurebank.json", func(*testing.T) []string { return []string{"-insecurebank"} }, exitLeaks},
		{"testdata/reflection1.json", func(t *testing.T) []string {
			return []string{writeApp(t, reflectionCase(t, "Reflection1").Files)}
		}, exitLeaks},
		{"testdata/reflection3.json", func(t *testing.T) []string {
			return []string{writeApp(t, reflectionCase(t, "Reflection3").Files)}
		}, exitClean},
	}
	for _, c := range cases {
		t.Run(filepath.Base(c.golden), func(t *testing.T) {
			got, code := flowdroidJSON(t, c.args(t)...)
			if code != c.exit {
				t.Fatalf("exit %d, want %d\n%s", code, c.exit, got)
			}
			if os.Getenv("UPDATE_GOLDEN") == "1" {
				if err := os.WriteFile(c.golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(c.golden)
			if err != nil {
				t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create it)", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("envelope differs from %s:\n%s", c.golden, got)
			}
		})
	}
}
