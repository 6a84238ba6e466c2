package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"flowdroid/internal/appgen"
	"flowdroid/internal/core"
	"flowdroid/internal/taint"
)

// waitJobHTTP polls the status endpoint until the job leaves the queue.
func waitJobHTTP(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, body := get(t, ts.URL+"/v1/jobs/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status: %d %s", resp.StatusCode, body)
		}
		var st JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("status body %s: %v", body, err)
		}
		if st.State == "done" || st.State == "failed" {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %q", id, st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestHTTPSubmitWithSinkQuery exercises the demand-driven query surface
// of POST /v1/jobs: a job with a "sinks" field must report exactly the
// whole-program leaks into those sinks, carry the cone counters, and
// key the circuit breaker separately from the whole-program submission
// of the same app.
func TestHTTPSubmitWithSinkQuery(t *testing.T) {
	_, ts := newTestAPI(t, Config{QueueSize: 8, Analyses: 2})
	app := appgen.GenerateCorpus(appgen.Malware, 1, 3)[0]

	submit := func(req Request) SubmitResponse {
		t.Helper()
		resp, body := postJob(t, ts.URL, req)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: %d %s", resp.StatusCode, body)
		}
		var sub SubmitResponse
		if err := json.Unmarshal(body, &sub); err != nil {
			t.Fatalf("submit body %s: %v", body, err)
		}
		return sub
	}
	result := func(id string) core.Envelope {
		t.Helper()
		resp, body := get(t, ts.URL+"/v1/jobs/"+id+"/result")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("result: %d %s", resp.StatusCode, body)
		}
		var rep core.Envelope
		if err := json.Unmarshal(body, &rep); err != nil {
			t.Fatalf("result body %s: %v", body, err)
		}
		return rep
	}

	whole := submit(Request{Files: app.Files})
	queried := submit(Request{Files: app.Files, Sinks: []string{"sms"}})
	if whole.Fingerprint == queried.Fingerprint {
		t.Fatalf("whole-program and query submissions share fingerprint %s; the breaker cannot tell them apart", whole.Fingerprint)
	}

	if st := waitJobHTTP(t, ts, whole.ID); st.State != "done" || st.Status != "Complete" {
		t.Fatalf("whole-program job: state %q status %q error %q", st.State, st.Status, st.Error)
	}
	if st := waitJobHTTP(t, ts, queried.ID); st.State != "done" || st.Status != "Complete" {
		t.Fatalf("query job: state %q status %q error %q", st.State, st.Status, st.Error)
	}

	wholeRep, queryRep := result(whole.ID), result(queried.ID)
	if wholeRep.Counters.ConeMethods != 0 || wholeRep.Counters.SkippedComponents != 0 {
		t.Fatalf("whole-program report carries cone counters %d/%d, want zero",
			wholeRep.Counters.ConeMethods, wholeRep.Counters.SkippedComponents)
	}
	if queryRep.Counters.ConeMethods == 0 {
		t.Fatal("query report carries no cone size")
	}

	// The equivalence contract over the wire: the query report's leaks
	// are exactly the whole-program leaks into the queried sink.
	want := []taint.LeakReport{}
	for _, l := range wholeRep.Leaks {
		if l.SinkLabel == "sms" {
			want = append(want, l)
		}
	}
	if len(want) == 0 {
		t.Fatalf("fixture app leaks nowhere into sms; pick another seed (leaks: %+v)", wholeRep.Leaks)
	}
	if !reflect.DeepEqual(queryRep.Leaks, want) {
		t.Fatalf("query leaks differ from filtered whole-program leaks:\n got %+v\nwant %+v", queryRep.Leaks, want)
	}

	// An unknown selector fails the job with a diagnosable error instead
	// of silently analyzing nothing.
	bogus := submit(Request{Files: app.Files, Sinks: []string{"no-such-sink"}})
	st := waitJobHTTP(t, ts, bogus.ID)
	if st.State != "failed" {
		t.Fatalf("unknown-selector job ended %q, want failed", st.State)
	}
	if !strings.Contains(st.Error, "no-such-sink") {
		t.Fatalf("failure %q does not name the unknown selector", st.Error)
	}
}
