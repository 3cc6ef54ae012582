package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"valleymap/internal/mapping"
	"valleymap/internal/obs"
	"valleymap/internal/trace"
	"valleymap/internal/workload"
)

var hexTraceID = regexp.MustCompile(`^[0-9a-f]{32}$`)

// findSpan walks a span forest depth-first for the first span with the
// given name.
func findSpan(nodes []*spanNodeJSON, name string) *spanNodeJSON {
	for _, n := range nodes {
		if n.Name == name {
			return n
		}
		if hit := findSpan(n.Children, name); hit != nil {
			return hit
		}
	}
	return nil
}

// spanNodeJSON mirrors obs.SpanNode for decoding the endpoint response
// without importing internal response details into assertions.
type spanNodeJSON struct {
	ID         int               `json:"id"`
	Name       string            `json:"name"`
	DurationUS int64             `json:"duration_us"`
	InProgress bool              `json:"in_progress"`
	Attrs      map[string]string `json:"attrs"`
	Children   []*spanNodeJSON   `json:"children"`
}

// TestJobTraceEndpoint runs a sweep end to end and asserts the span
// tree on GET /v1/jobs/{id}/trace covers the full path the issue
// promises: accept → enqueue → per-cell queue wait → trace build →
// engine run → cache put, with the same trace_id stamped on the job,
// the span tree and every NDJSON event.
func TestJobTraceEndpoint(t *testing.T) {
	svc := New(Config{Workers: 2})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{
		Workloads: []string{"SP"}, Schemes: []string{"BASE", "PAE"}, Scale: "tiny",
	})
	var job Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !hexTraceID.MatchString(job.TraceID) {
		t.Fatalf("job trace_id %q is not a 32-hex trace identifier", job.TraceID)
	}
	waitJob(t, svc, job.ID)

	tr, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Body.Close()
	if tr.StatusCode != http.StatusOK {
		t.Fatalf("trace endpoint status = %d", tr.StatusCode)
	}
	var jt struct {
		JobID        string          `json:"job_id"`
		TraceID      string          `json:"trace_id"`
		DroppedSpans int             `json:"dropped_spans"`
		Spans        []*spanNodeJSON `json:"spans"`
	}
	if err := json.NewDecoder(tr.Body).Decode(&jt); err != nil {
		t.Fatal(err)
	}
	if jt.JobID != job.ID || jt.TraceID != job.TraceID {
		t.Errorf("trace identifies %s/%s, want %s/%s", jt.JobID, jt.TraceID, job.ID, job.TraceID)
	}
	if jt.DroppedSpans != 0 {
		t.Errorf("a 2-cell sweep dropped %d spans", jt.DroppedSpans)
	}

	root := findSpan(jt.Spans, "job")
	if root == nil {
		t.Fatalf("no root job span in %d top-level spans", len(jt.Spans))
	}
	if root.InProgress {
		t.Error("root span still in_progress after the job finished")
	}
	if findSpan([]*spanNodeJSON{root}, "enqueue") == nil {
		t.Error("no enqueue span under the root")
	}
	cell := findSpan([]*spanNodeJSON{root}, "cell")
	if cell == nil {
		t.Fatal("no cell span under the root")
	}
	if cell.Attrs["workload"] != "SP" {
		t.Errorf("cell span attrs = %v, want workload SP", cell.Attrs)
	}
	for _, name := range []string{"queue_wait", "trace_build", "engine_run", "cache_put"} {
		if findSpan([]*spanNodeJSON{root}, name) == nil {
			t.Errorf("no %s span anywhere under the root", name)
		}
	}
	eng := findSpan([]*spanNodeJSON{root}, "engine_run")
	if eng != nil && eng.Attrs["kernels_us"] == "" {
		t.Errorf("engine_run span lacks stage timings: %v", eng.Attrs)
	}

	// Every NDJSON event carries the job's trace_id.
	ev, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer ev.Body.Close()
	dec := json.NewDecoder(ev.Body)
	n := 0
	for dec.More() {
		var e JobEvent
		if err := dec.Decode(&e); err != nil {
			t.Fatal(err)
		}
		if e.TraceID != job.TraceID {
			t.Errorf("event seq %d trace_id = %q, want %q", e.Seq, e.TraceID, job.TraceID)
		}
		n++
	}
	if n == 0 {
		t.Fatal("no events replayed")
	}

	// The client's X-Trace-Id propagates into the job when provided.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/simulate",
		strings.NewReader(`{"workloads":["SP"],"schemes":["BASE"],"scale":"tiny"}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Trace-Id", "cafe0000cafe0000cafe0000cafe0000")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var job2 Job
	if err := json.NewDecoder(resp2.Body).Decode(&job2); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if job2.TraceID != "cafe0000cafe0000cafe0000cafe0000" {
		t.Errorf("job trace_id = %q, want the client-supplied X-Trace-Id", job2.TraceID)
	}
	waitJob(t, svc, job2.ID)
}

func TestJobTraceUnknownJob(t *testing.T) {
	svc, ts := newTestServer(t)
	_ = svc
	resp, err := http.Get(ts.URL + "/v1/jobs/nope/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}

// TestPoolPanicBackstop: a task that panics without its own recovery
// must not kill the shared worker — the pool recovers, counts the panic
// and keeps serving later tasks.
func TestPoolPanicBackstop(t *testing.T) {
	m := NewMetrics()
	p := newPool(1, 4, m, nil)
	defer p.close()

	var wg sync.WaitGroup
	wg.Add(1)
	p.submit(func() {
		defer wg.Done()
		panic("boom")
	})
	wg.Wait()

	// The single worker must survive to run this.
	done := make(chan struct{})
	p.submit(func() { close(done) })
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("worker died after a panicking task")
	}
	if got := m.workerPanics.Value(); got != 1 {
		t.Errorf("WorkerPanics = %v, want 1", got)
	}
}

// TestSweepCellPanicFailsJob drives runSweep with a workload whose
// trace build panics: the cell's recovery must mark the job failed with
// the panic message, count it in valleyd_worker_panics_total, and leave
// the dispatcher (and its span trace) cleanly finished rather than
// hanging the WaitGroup.
func TestSweepCellPanicFailsJob(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()

	boom := workload.Spec{
		Abbr: "BOOM", Name: "panicking workload",
		Build: func(workload.Scale) *trace.App { panic("trace build exploded") },
	}
	rc, err := resolveCoords("", "tiny", 0)
	if err != nil {
		t.Fatal(err)
	}
	plan := sweepPlan{rc: rc, specs: []workload.Spec{boom}, schemes: []mapping.Scheme{mapping.BASE},
		cells: []cellExec{rc.cell(boom, mapping.BASE)}}
	tr := obs.NewTrace("panictrace", 64)
	root := tr.Start(0, "job")
	job, err := svc.jobs.create("simulate", len(plan.cells), tr)
	if err != nil {
		t.Fatal(err)
	}
	svc.sweepWG.Add(1)
	sw := &sweep{plan: plan, jobID: job.ID, jobs: svc.jobs, tr: tr, root: root, apps: make([]sharedApp, 1), result: plan.result()}
	svc.runSweep(context.Background(), sw, func() {})

	j, ok := svc.Job(job.ID)
	if !ok {
		t.Fatal("job vanished")
	}
	if j.Status != JobFailed {
		t.Fatalf("job status = %s, want failed", j.Status)
	}
	if !strings.Contains(j.Error, "trace build exploded") {
		t.Errorf("job error %q does not carry the panic message", j.Error)
	}
	if got := svc.metrics.workerPanics.Value(); got != 1 {
		t.Errorf("WorkerPanics = %v, want 1", got)
	}
	jt, ok := svc.JobTrace(job.ID)
	if !ok {
		t.Fatal("no trace for the failed job")
	}
	cell := findSpan(toSpanJSON(jt.Spans), "cell")
	if cell == nil || cell.Attrs["panic"] == "" {
		t.Error("cell span is missing the panic annotation")
	}
}

// toSpanJSON round-trips obs span nodes through JSON into the test's
// decoding shape, so tree assertions are shared with the HTTP tests.
func toSpanJSON(v any) []*spanNodeJSON {
	b, err := json.Marshal(v)
	if err != nil {
		return nil
	}
	var nodes []*spanNodeJSON
	if err := json.Unmarshal(b, &nodes); err != nil {
		return nil
	}
	return nodes
}
