package service

// Golden-file test for the /v1/jobs/{id}/result envelope: the exact
// bytes the daemon serves for InsecureBank and for two reflection
// fixtures with non-empty soundness blocks are pinned under testdata/.
// One executor with a one-worker budget runs the sequential solver, so
// every counter is deterministic. Refresh after an intentional schema
// change with:
//
//	UPDATE_GOLDEN=1 go test ./internal/service -run ResultEnvelopeGolden

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flowdroid/internal/droidbench"
	"flowdroid/internal/insecurebank"
)

func TestResultEnvelopeGolden(t *testing.T) {
	files := map[string]map[string]string{
		"testdata/insecurebank.json": insecurebank.Files,
	}
	for _, c := range droidbench.ReflectionCases() {
		if c.Name == "Reflection1" || c.Name == "Reflection3" {
			files["testdata/"+strings.ToLower(c.Name)+".json"] = c.Files
		}
	}
	if len(files) != 3 {
		t.Fatalf("found %d fixtures, want 3", len(files))
	}
	s, ts := newTestAPI(t, Config{QueueSize: 4, Analyses: 1, WorkerBudget: 1})
	for golden, app := range files {
		t.Run(filepath.Base(golden), func(t *testing.T) {
			resp, body := postJob(t, ts.URL, Request{Files: app})
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit: %d %s", resp.StatusCode, body)
			}
			var sub SubmitResponse
			if err := json.Unmarshal(body, &sub); err != nil {
				t.Fatalf("submit body %s: %v", body, err)
			}
			waitJob(t, s, sub.ID)
			resp, got := get(t, ts.URL+"/v1/jobs/"+sub.ID+"/result")
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("result: %d %s", resp.StatusCode, got)
			}
			if os.Getenv("UPDATE_GOLDEN") == "1" {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create it)", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("result envelope differs from %s:\n%s", golden, got)
			}
		})
	}
}
