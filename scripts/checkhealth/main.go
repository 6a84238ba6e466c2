// Command checkhealth is the CI gate for the resident daemon: it
// builds and starts flowdroidd, pushes one generated app through the
// full submit → poll → result flow, checks /healthz and /metrics, then
// sends SIGTERM and asserts a clean graceful drain (exit code 0).
//
// Usage:
//
//	go run ./scripts/checkhealth            # builds cmd/flowdroidd itself
//	go run ./scripts/checkhealth -bin PATH  # uses a prebuilt daemon
//
// Exit 0 when every step passed, 1 with a diagnostic otherwise.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"time"

	"flowdroid/internal/appgen"
	"flowdroid/internal/core"
	"flowdroid/internal/service"
)

var (
	bin     = flag.String("bin", "", "prebuilt flowdroidd binary (default: go build it)")
	timeout = flag.Duration("timeout", 2*time.Minute, "overall deadline for the health check")
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "checkhealth:", err)
		os.Exit(1)
	}
	fmt.Println("checkhealth OK")
}

var listenRE = regexp.MustCompile(`listening on http://([^ ]+)`)

func run() error {
	deadline := time.Now().Add(*timeout)

	daemon := *bin
	if daemon == "" {
		dir, err := os.MkdirTemp("", "checkhealth")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		daemon = filepath.Join(dir, "flowdroidd")
		build := exec.Command("go", "build", "-o", daemon, "./cmd/flowdroidd")
		if out, err := build.CombinedOutput(); err != nil {
			return fmt.Errorf("build flowdroidd: %v\n%s", err, out)
		}
	}

	// Start the daemon on an ephemeral port and scrape the bound
	// address off its stderr banner.
	cmd := exec.Command(daemon, "-addr", "127.0.0.1:0", "-analyses", "2", "-queue", "8", "-drain-timeout", "30s")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start flowdroidd: %v", err)
	}
	defer cmd.Process.Kill() // no-op after a clean Wait

	lines := make(chan string, 64)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	var base string
	for base == "" {
		select {
		case line, ok := <-lines:
			if !ok {
				return fmt.Errorf("flowdroidd exited before announcing its address")
			}
			if m := listenRE.FindStringSubmatch(line); m != nil {
				base = "http://" + m[1]
			}
		case <-time.After(time.Until(deadline)):
			return fmt.Errorf("timed out waiting for the listen banner")
		}
	}
	// Keep draining stderr so the daemon never blocks on a full pipe.
	var tail []string
	go func() {
		for line := range lines {
			tail = append(tail, line)
		}
	}()

	// Submit one generated app.
	app := appgen.GenerateCorpus(appgen.Malware, 1, 1)[0]
	body, err := json.Marshal(service.Request{Files: app.Files})
	if err != nil {
		return err
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("submit: %v", err)
	}
	var sub service.SubmitResponse
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("submit: status %d, decode %v", resp.StatusCode, err)
	}
	fmt.Printf("submitted %s as %s (fingerprint %s)\n", app.Name, sub.ID, sub.Fingerprint)

	// Poll to completion.
	var status service.JobStatus
	for {
		if time.Now().After(deadline) {
			return fmt.Errorf("job %s stuck in state %q", sub.ID, status.State)
		}
		st, body, err := getJSON(base+"/v1/jobs/"+sub.ID, &status)
		if err != nil || st != http.StatusOK {
			return fmt.Errorf("poll: status %d, %v, %s", st, err, body)
		}
		if status.State == "done" || status.State == "failed" {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if status.State != "done" || status.Status != "Complete" {
		return fmt.Errorf("job ended state=%q status=%q error=%q", status.State, status.Status, status.Error)
	}

	// Fetch the result and check the leak count against ground truth.
	var rep core.Envelope
	if st, body, err := getJSON(base+"/v1/jobs/"+sub.ID+"/result", &rep); err != nil || st != http.StatusOK {
		return fmt.Errorf("result: status %d, %v, %s", st, err, body)
	}
	if len(rep.Leaks) != app.InjectedLeaks {
		return fmt.Errorf("result reports %d leaks, ground truth %d", len(rep.Leaks), app.InjectedLeaks)
	}
	fmt.Printf("result: %s, %d leak(s) (matches ground truth)\n", rep.Status, len(rep.Leaks))

	// Health and metrics surfaces.
	var health struct {
		Status string `json:"status"`
		service.Stats
	}
	if st, body, err := getJSON(base+"/healthz", &health); err != nil || st != http.StatusOK {
		return fmt.Errorf("healthz: status %d, %v, %s", st, err, body)
	}
	if health.Status != "ok" {
		return fmt.Errorf("healthz status %q, want ok", health.Status)
	}
	var snap map[string]json.RawMessage
	if st, body, err := getJSON(base+"/metrics", &snap); err != nil || st != http.StatusOK {
		return fmt.Errorf("metrics: status %d, %v, %s", st, err, body)
	}
	for _, key := range []string{"deterministic", "schedule", "timings"} {
		if _, ok := snap[key]; !ok {
			return fmt.Errorf("metrics snapshot misses section %q", key)
		}
	}
	fmt.Println("healthz ok, metrics snapshot well-formed")

	// SIGTERM: the daemon must drain and exit 0 on its own.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signal: %v", err)
	}
	waited := make(chan error, 1)
	go func() { waited <- cmd.Wait() }()
	select {
	case err := <-waited:
		if err != nil {
			return fmt.Errorf("flowdroidd exited uncleanly after SIGTERM: %v\nstderr:\n%s", err, strings.Join(tail, "\n"))
		}
	case <-time.After(time.Until(deadline)):
		cmd.Process.Kill()
		return fmt.Errorf("flowdroidd did not exit within the deadline after SIGTERM\nstderr:\n%s", strings.Join(tail, "\n"))
	}
	fmt.Println("SIGTERM drained cleanly (exit 0)")
	return nil
}

// getJSON fetches url and decodes the body into v, returning the status
// code and the raw body for diagnostics.
func getJSON(url string, v any) (int, []byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, body, json.Unmarshal(body, v)
}
