package service

// Admission-control tests: the EWMA cost model, deadline-infeasible
// shedding (429 + Retry-After), Retry-After on capacity 503s, and the
// degraded mode that serves fully-cached sweeps inline past a
// saturated pool.

import (
	"context"
	"math"
	"net/http"
	"testing"
	"time"

	"valleymap/internal/testutil"
)

func TestCostModelEWMA(t *testing.T) {
	c := newCostModel()
	if _, ok := c.estimate("baseline", "tiny"); ok {
		t.Error("empty model must report no estimate")
	}
	if _, ok := c.mean(); ok {
		t.Error("empty model must report no mean")
	}

	c.observe("baseline", "tiny", 2.0)
	if got, ok := c.estimate("baseline", "tiny"); !ok || got != 2.0 {
		t.Errorf("first observation: estimate = %v, %v; want 2.0, true", got, ok)
	}
	// EWMA folding: 2.0 + 0.3*(4.0-2.0) = 2.6.
	c.observe("baseline", "tiny", 4.0)
	if got, _ := c.estimate("baseline", "tiny"); math.Abs(got-2.6) > 1e-9 {
		t.Errorf("EWMA estimate = %v, want 2.6", got)
	}
	// Unknown class falls back to the global mean, not to zero.
	if got, ok := c.estimate("3d", "full"); !ok || got <= 0 {
		t.Errorf("unknown class estimate = %v, %v; want the positive global mean", got, ok)
	}
	// Garbage observations are ignored.
	before, _ := c.estimate("baseline", "tiny")
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		c.observe("baseline", "tiny", bad)
	}
	if after, _ := c.estimate("baseline", "tiny"); after != before {
		t.Errorf("garbage observations moved the estimate %v -> %v", before, after)
	}
}

// TestCostModelSeesOnlyFreshCells: each freshly simulated cell feeds
// the admission cost model once. Cells served from the cache, by a
// repeated sweep or by ExecuteCell, feed it nothing: their times
// measure the cache, not the simulator.
func TestCostModelSeesOnlyFreshCells(t *testing.T) {
	svc := New(Config{Workers: 2})
	defer svc.Close()
	observed := func() int64 {
		svc.costs.mu.Lock()
		defer svc.costs.mu.Unlock()
		return svc.costs.n
	}
	req := SimulateRequest{Workloads: []string{"SP"}, Schemes: []string{"BASE", "PAE"}, Scale: "tiny"}
	runSweepToDone(t, svc, req)
	if n := observed(); n != 2 {
		t.Fatalf("a cold 2-cell sweep fed the cost model %d times, want 2", n)
	}
	runSweepToDone(t, svc, req)
	if _, err := svc.ExecuteCell(context.Background(), CellSpec{Workload: "SP", Scheme: "PAE", Scale: "tiny"}); err != nil {
		t.Fatal(err)
	}
	if n := observed(); n != 2 {
		t.Errorf("fed the cost model %d times, want 2", n)
	}
}

func TestClampRetryAfter(t *testing.T) {
	for _, tc := range []struct {
		secs float64
		want int
	}{{-3, 1}, {0, 1}, {0.2, 1}, {1.5, 2}, {59, 59}, {1e9, 600}} {
		if got := clampRetryAfter(tc.secs); got != tc.want {
			t.Errorf("clampRetryAfter(%v) = %d, want %d", tc.secs, got, tc.want)
		}
	}
}

// TestAdmissionShedsInfeasibleSweep seeds the cost model with a cell
// cost far beyond the request's deadline budget: admission must shed
// the sweep up front as a 429 with a Retry-After hint, count it, and
// create no job.
func TestAdmissionShedsInfeasibleSweep(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	svc := New(Config{Workers: 1})
	base := newServerFor(t, svc)

	// Pretend history: tiny baseline cells take 5 s each. Eight of them
	// on one worker can never meet a 100 ms deadline.
	svc.costs.observe("baseline", "tiny", 5.0)

	resp := postJSON(t, base+"/v1/simulate?deadline_ms=100", slowSweep)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("Retry-After = %q, want a positive seconds hint", ra)
	}
	if got := svc.metrics.jobsShed.Value(); got != 1 {
		t.Errorf("JobsShed = %v, want 1", got)
	}
	// Shedding happens before job creation, so no job handle exists.
	if _, ok := svc.Job("job-1"); ok {
		t.Error("shed sweep still created a job")
	}

	// The same sweep with a generous budget is admitted: shedding is a
	// deadline decision, not a blanket rejection.
	resp2 := postJSON(t, base+"/v1/simulate?deadline_ms=600000", slowSweep)
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("feasible sweep: status = %d, want 202", resp2.StatusCode)
	}
}

// TestColdBootAdmitsDeadlineSweep pins boot-time admission: a freshly
// started daemon has an empty cost model, and "no history" must read
// as "feasibility unknown — admit", never as a shed. A cold EWMA that
// sheds (or stamps a Retry-After onto an accepted response) would turn
// every post-restart deadline-bearing sweep into a spurious 429.
func TestColdBootAdmitsDeadlineSweep(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	svc := New(Config{Workers: 2})
	base := newServerFor(t, svc)

	resp := postJSON(t, base+"/v1/simulate?deadline_ms=60000", SimulateRequest{
		Workloads: []string{"SP"}, Schemes: []string{"BASE"}, Scale: "tiny",
	})
	if resp.StatusCode != http.StatusAccepted {
		resp.Body.Close()
		t.Fatalf("cold-boot deadline sweep: status = %d, want 202", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		t.Errorf("accepted sweep carries Retry-After %q, want none", ra)
	}
	var job struct {
		ID string `json:"id"`
	}
	decodeBody(t, resp, &job)
	if got := svc.metrics.jobsShed.Value(); got != 0 {
		t.Errorf("JobsShed = %v after a cold-boot admit, want 0", got)
	}
	// The admitted sweep also finishes inside its budget, so the cold
	// path is admit-and-run, not admit-and-strand.
	if j := waitJob(t, svc, job.ID); j.Status != JobDone {
		t.Fatalf("cold-boot sweep ended %s: %s", j.Status, j.Error)
	}
}

// TestOverload503CarriesRetryAfter: capacity rejections (job cap full)
// surface as 503 with a Retry-After header so clients back off instead
// of tight-looping.
func TestOverload503CarriesRetryAfter(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	svc := New(Config{Workers: 1, MaxJobs: 1})
	base := newServerFor(t, svc)

	// Park the only worker so the first job stays in flight and pins
	// the job cap.
	gate := make(chan struct{})
	svc.pool.submit(func() { <-gate })
	defer close(gate)

	resp := postJSON(t, base+"/v1/simulate", SimulateRequest{Workloads: []string{"SP"}, Schemes: []string{"BASE"}, Scale: "tiny"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first sweep: status = %d, want 202", resp.StatusCode)
	}
	resp2 := postJSON(t, base+"/v1/simulate", SimulateRequest{Workloads: []string{"SP"}, Schemes: []string{"BASE"}, Scale: "tiny"})
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-cap sweep: status = %d, want 503", resp2.StatusCode)
	}
	if ra := resp2.Header.Get("Retry-After"); ra == "" {
		t.Error("503 without a Retry-After header")
	}
}

// TestDegradedServesCachedSweepInline: with every worker busy and the
// queue half full, a sweep that is already fully resident in the sim
// cache must not queue behind the backlog — it runs inline on the
// dispatcher (degraded mode), completes, and reports every cell cached.
func TestDegradedServesCachedSweepInline(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	svc := New(Config{Workers: 1, QueueDepth: 2})
	defer svc.Close()

	req := SimulateRequest{Workloads: []string{"SP"}, Schemes: []string{"BASE", "PAE"}, Scale: "tiny"}
	job, err := svc.Simulate(req)
	if err != nil {
		t.Fatal(err)
	}
	if j := waitJob(t, svc, job.ID); j.Status != JobDone {
		t.Fatalf("warm-up sweep ended %s: %s", j.Status, j.Error)
	}

	// Saturate: the only worker parks on the gate and one more wedged
	// task fills half the queue.
	gate := make(chan struct{})
	svc.pool.submit(func() { <-gate })
	svc.pool.submit(func() { <-gate })
	defer close(gate)
	waitFor(t, 5*time.Second, func() bool { return svc.poolSaturated() })

	job2, err := svc.Simulate(req)
	if err != nil {
		t.Fatal(err)
	}
	j2 := waitJob(t, svc, job2.ID)
	if j2.Status != JobDone {
		t.Fatalf("degraded sweep ended %s: %s", j2.Status, j2.Error)
	}
	for _, cell := range j2.Result.Cells {
		if !cell.Cached {
			t.Errorf("degraded cell %s/%s was recomputed, want cache hit", cell.Workload, cell.Scheme)
		}
	}
	if got := svc.metrics.degradedSweeps.Value(); got != 1 {
		t.Errorf("DegradedSweeps = %v, want 1", got)
	}
}

// waitFor polls cond until it holds or the timeout expires.
func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition never held")
}
