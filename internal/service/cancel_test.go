package service

// Cancellation and deadline propagation tests: jobs abandoned by their
// clients or overrunning their budgets must reach a terminal state with
// the right terminal event, free their worker slots, and leave the
// event-stream contract (dense ascending seq, cells strictly before the
// single terminal record) intact.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"valleymap/internal/testutil"
)

// slowSweep is a sweep big enough (8 tiny cells) that a 1-worker
// service is still mid-flight when a test cancels it.
var slowSweep = SimulateRequest{
	Workloads: []string{"MT", "LU", "SC", "SP"},
	Schemes:   []string{"BASE", "PAE"},
	Scale:     "tiny",
}

// newServerFor wraps an already-configured service in a test HTTP
// server, with the goroutine-leak check armed around both.
func newServerFor(t *testing.T, svc *Service) string {
	t.Helper()
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return ts.URL
}

// doMethod issues a bodyless request with the given method and decodes
// nothing; the caller owns the response.
func doMethod(t *testing.T, method, url string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// checkCanceledTranscript asserts the stream contract for a canceled
// job: dense seq from 0, a start event first, zero or more cells, and
// exactly one terminal event of the given type carrying an error.
func checkCanceledTranscript(t *testing.T, evs []JobEvent, terminal string) {
	t.Helper()
	if len(evs) == 0 {
		t.Fatal("empty transcript")
	}
	if evs[0].Type != EventStart {
		t.Errorf("first event %q, want start", evs[0].Type)
	}
	for i, ev := range evs {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d, want dense ascending from 0", i, ev.Seq)
		}
		isLast := i == len(evs)-1
		if terminalEvent(ev.Type) != isLast {
			t.Fatalf("event %d (%s) of %d: terminal events must be exactly the last record", i, ev.Type, len(evs))
		}
		if isLast {
			if ev.Type != terminal {
				t.Fatalf("terminal event %q, want %q (error %q)", ev.Type, terminal, ev.Error)
			}
			if ev.Error == "" {
				t.Error("terminal cancel event carries no error text")
			}
		}
	}
}

// drainJobEvents reads an in-process subscription to end-of-stream.
func drainJobEvents(t *testing.T, s *Service, id string) []JobEvent {
	t.Helper()
	sub, ok := s.JobEvents(id, 0)
	if !ok {
		t.Fatalf("no event subscription for job %s", id)
	}
	return drainSubscription(t, sub)
}

// drainSubscription reads a subscription to end-of-stream.
func drainSubscription(t *testing.T, sub *JobSubscription) []JobEvent {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var evs []JobEvent
	for {
		ev, eos, err := sub.Next(ctx)
		if err != nil {
			t.Fatalf("event stream did not terminate: %v", err)
		}
		if eos {
			return evs
		}
		evs = append(evs, ev)
	}
}

// TestSweepExpiredDeadlineCanceled pins the deadline path end to end
// in-process: a sweep whose context deadline has already passed is
// still accepted (no cost data yet — admission never sheds blind) but
// terminates as canceled with a deadline_exceeded terminal event.
func TestSweepExpiredDeadlineCanceled(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	s := New(Config{Workers: 1})
	defer s.Close()

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	job, err := s.SimulateCtx(ctx, slowSweep)
	if err != nil {
		t.Fatal(err)
	}
	if job.Deadline == nil {
		t.Error("job snapshot does not carry its deadline")
	}

	j := waitJob(t, s, job.ID)
	if j.Status != JobCanceled {
		t.Fatalf("job status = %s, want canceled (error %q)", j.Status, j.Error)
	}
	if !strings.Contains(j.Error, "deadline") {
		t.Errorf("job error %q does not mention the deadline", j.Error)
	}
	checkCanceledTranscript(t, drainJobEvents(t, s, job.ID), EventDeadlineExceeded)
	if got := s.metrics.jobsCanceled.Value(); got != 1 {
		t.Errorf("JobsCanceled = %v, want 1", got)
	}

	// The canceled sweep must not have poisoned the pool: a fresh
	// unbounded sweep still completes.
	job2, err := s.Simulate(SimulateRequest{Workloads: []string{"SP"}, Schemes: []string{"BASE"}, Scale: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	if j2 := waitJob(t, s, job2.ID); j2.Status != JobDone {
		t.Errorf("follow-up job ended %s: %s", j2.Status, j2.Error)
	}
}

// TestHTTPDeadlineMsExpiry drives ?deadline_ms through the HTTP layer:
// a 1 ms budget on an 8-cell sweep over one worker expires mid-flight,
// and the job terminates canceled with a deadline_exceeded event.
func TestHTTPDeadlineMsExpiry(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	svc := New(Config{Workers: 1})
	base := newServerFor(t, svc)

	resp := postJSON(t, base+"/v1/simulate?deadline_ms=1", slowSweep)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, want 202", resp.StatusCode)
	}
	var job Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	if job.Deadline == nil {
		t.Error("202 body does not carry the job deadline")
	}

	j := waitJob(t, svc, job.ID)
	if j.Status != JobCanceled {
		t.Fatalf("job status = %s, want canceled (error %q)", j.Status, j.Error)
	}
	checkCanceledTranscript(t, drainJobEvents(t, svc, job.ID), EventDeadlineExceeded)
}

// TestHTTPBadDeadlineRejected: malformed, non-positive or overflowing
// budgets are 400s, not silently unbounded or instantly expired sweeps.
// Unchecked, 18446744073710 ms wraps to a 448 µs duration and
// 9223372036855 ms to a negative one; 9223372036854 ms, the largest
// budget a time.Duration holds, is accepted.
func TestHTTPBadDeadlineRejected(t *testing.T) {
	_, ts := newTestServer(t)
	body, err := json.Marshal(SimulateRequest{Workloads: []string{"SP"}, Schemes: []string{"BASE"}, Scale: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		query, header      string
		overflow, accepted bool
	}{
		{query: "0"}, {query: "-5"}, {query: "soon"},
		{query: "18446744073710", overflow: true},
		{query: "9223372036855", overflow: true},
		{header: "18446744073710", overflow: true},
		{query: "9223372036854", accepted: true},
	}
	for _, c := range cases {
		want := http.StatusBadRequest
		if c.accepted {
			want = http.StatusAccepted
		}
		url := ts.URL + "/v1/simulate"
		if c.query != "" {
			url += "?deadline_ms=" + c.query
		}
		req, err := http.NewRequest("POST", url, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if c.header != "" {
			req.Header.Set("X-Deadline-Ms", c.header)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%+v: status %d, want %d", c, resp.StatusCode, want)
		}
		if c.overflow && !strings.Contains(string(msg), "maximum is 9223372036854") {
			t.Errorf("%+v: error %s does not name the maximum budget", c, msg)
		}
	}
}

// TestHTTPCancelJob pins DELETE /v1/jobs/{id}: 404 for unknown ids,
// 200 + canceled terminal state for a running sweep, idempotent on
// repeat, and the worker pool stays usable afterwards.
func TestHTTPCancelJob(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	svc := New(Config{Workers: 1})
	base := newServerFor(t, svc)

	if resp := doMethod(t, "DELETE", base+"/v1/jobs/nope"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE unknown job: status %d, want 404", resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	resp := postJSON(t, base+"/v1/simulate", slowSweep)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, want 202", resp.StatusCode)
	}
	var job Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	if dresp := doMethod(t, "DELETE", base+"/v1/jobs/"+job.ID); dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE running job: status %d, want 200", dresp.StatusCode)
	} else {
		dresp.Body.Close()
	}
	j := waitJob(t, svc, job.ID)
	if j.Status != JobCanceled {
		t.Fatalf("job status = %s, want canceled (error %q)", j.Status, j.Error)
	}
	if !strings.Contains(j.Error, "DELETE") {
		t.Errorf("job error %q does not carry the cancel reason", j.Error)
	}
	checkCanceledTranscript(t, drainJobEvents(t, svc, job.ID), EventCanceled)

	// Canceling a terminal job is a no-op 200, not an error.
	if dresp := doMethod(t, "DELETE", base+"/v1/jobs/"+job.ID); dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE terminal job: status %d, want 200", dresp.StatusCode)
	} else {
		dresp.Body.Close()
	}

	// The canceled cells freed their slots: a follow-up sweep finishes.
	job2, err := svc.Simulate(SimulateRequest{Workloads: []string{"SP"}, Schemes: []string{"BASE"}, Scale: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	if j2 := waitJob(t, svc, job2.ID); j2.Status != JobDone {
		t.Errorf("follow-up job ended %s: %s", j2.Status, j2.Error)
	}
}

// TestStreamDisconnectAbandonsSweep pins the abandoned-stream path: a
// client that POSTs /v1/simulate?stream=1 and drops the connection is
// the sweep's only consumer, so the handler cancels the job rather than
// burning the remaining cells to completion for nobody.
func TestStreamDisconnectAbandonsSweep(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	svc := New(Config{Workers: 1})
	base := newServerFor(t, svc)

	resp := postJSON(t, base+"/v1/simulate?stream=1", slowSweep)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	// Read the start event (it carries the job id), then drop the
	// connection mid-sweep.
	line, err := bufio.NewReader(resp.Body).ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	var start JobEvent
	if err := json.Unmarshal(line, &start); err != nil {
		t.Fatalf("first stream record %q: %v", line, err)
	}
	if start.JobID == "" {
		t.Fatal("start event carries no job id")
	}
	resp.Body.Close()

	fin := waitJob(t, svc, start.JobID)
	switch fin.Status {
	case JobCanceled:
		if !strings.Contains(fin.Error, "disconnected") {
			t.Errorf("job error %q does not carry the disconnect reason", fin.Error)
		}
		checkCanceledTranscript(t, drainJobEvents(t, svc, start.JobID), EventCanceled)
	case JobDone:
		// The sweep can legitimately win the race on a fast machine;
		// the contract under test is only that it terminates and frees
		// its slots either way.
		t.Log("sweep completed before the disconnect propagated; cancellation path not exercised")
	default:
		t.Fatalf("abandoned job ended %s: %s", fin.Status, fin.Error)
	}

	job2, err := svc.Simulate(SimulateRequest{Workloads: []string{"SP"}, Schemes: []string{"BASE"}, Scale: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	if j2 := waitJob(t, svc, job2.ID); j2.Status != JobDone {
		t.Errorf("follow-up job ended %s: %s", j2.Status, j2.Error)
	}
}
