//go:build faultinject

package service

// Chaos suite (runs only with -tags faultinject, which CI drives under
// -race): seeded fault injection over concurrent sweeps, asserting the
// daemon's core robustness contracts — every accepted job reaches a
// terminal state, event streams keep their per-subscriber ordering,
// goroutine counts return to baseline, the cache and its spill tier
// never serve corrupt results, and a restarted daemon recovers cleanly.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"valleymap/internal/fault"
	"valleymap/internal/testutil"
)

// checkChaosTranscript asserts the stream contract without assuming
// which terminal the job reached: dense ascending seq from 0, start
// first, monotone done_cells, exactly one terminal as the last record.
func checkChaosTranscript(t *testing.T, evs []JobEvent) {
	t.Helper()
	if len(evs) == 0 {
		t.Fatal("empty transcript")
	}
	if evs[0].Type != EventStart {
		t.Errorf("first event %q, want start", evs[0].Type)
	}
	lastDone := -1
	for i, ev := range evs {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d, want dense ascending from 0", i, ev.Seq)
		}
		isLast := i == len(evs)-1
		if terminalEvent(ev.Type) != isLast {
			t.Fatalf("event %d (%s) of %d: the terminal must be exactly the last record", i, ev.Type, len(evs))
		}
		if ev.Type == EventCell {
			if ev.Done <= lastDone {
				t.Errorf("done_cells went %d -> %d at seq %d", lastDone, ev.Done, ev.Seq)
			}
			lastDone = ev.Done
		}
	}
}

// TestChaosCellPanicDeterministic arms the cell-panic point at
// probability 1: the sweep's only cell panics, the job must land on
// failed with the injected message, and the pool survives.
func TestChaosCellPanicDeterministic(t *testing.T) {
	fault.Reset()
	t.Cleanup(fault.Reset)
	testutil.CheckGoroutineLeaks(t)
	svc := New(Config{Workers: 1})
	defer svc.Close()

	fault.InjectFail(fault.CellPanic, 1.0)
	job, err := svc.Simulate(SimulateRequest{Workloads: []string{"SP"}, Schemes: []string{"BASE"}, Scale: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	j := waitJob(t, svc, job.ID)
	if j.Status != JobFailed {
		t.Fatalf("job status = %s, want failed (error %q)", j.Status, j.Error)
	}
	if !strings.Contains(j.Error, "injected cell panic") {
		t.Errorf("job error %q does not carry the injected panic", j.Error)
	}
	if fault.Fired(fault.CellPanic) == 0 {
		t.Fatal("CellPanic fault point never fired — the seam is dead")
	}

	// Disarm and prove the worker survived the panic.
	fault.Reset()
	job2, err := svc.Simulate(SimulateRequest{Workloads: []string{"SP"}, Schemes: []string{"BASE"}, Scale: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	if j2 := waitJob(t, svc, job2.ID); j2.Status != JobDone {
		t.Errorf("post-panic job ended %s: %s", j2.Status, j2.Error)
	}
}

// TestChaosStorm is the main chaos run: seeded slow-worker and
// cell-panic faults over a storm of concurrent sweeps whose clients
// poll, stream, disconnect, cancel and impose deadlines — all at once.
func TestChaosStorm(t *testing.T) {
	fault.Reset()
	t.Cleanup(fault.Reset)
	testutil.CheckGoroutineLeaks(t)
	svc := New(Config{Workers: 4, QueueDepth: 64})
	base := newServerFor(t, svc)

	fault.Seed(42)
	fault.InjectDelay(fault.WorkerDelay, 0.3, 2*time.Millisecond)
	fault.InjectFail(fault.CellPanic, 0.05)

	req := SimulateRequest{
		Workloads: []string{"MT", "LU", "SC", "SP"},
		Schemes:   []string{"BASE", "PAE"},
		Scale:     "tiny",
	}
	const flavors = 4
	const jobsPerFlavor = 3
	var (
		mu       sync.Mutex
		accepted []string
		errs     []error
	)
	addJob := func(id string) {
		mu.Lock()
		accepted = append(accepted, id)
		mu.Unlock()
	}
	addErr := func(err error) {
		mu.Lock()
		errs = append(errs, err)
		mu.Unlock()
	}

	var wg sync.WaitGroup
	for i := 0; i < flavors*jobsPerFlavor; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch i % flavors {
			case 0: // plain 202 client, polls to terminal
				resp := postJSON(t, base+"/v1/simulate", req)
				defer resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted {
					addErr(fmt.Errorf("plain client %d: status %d", i, resp.StatusCode))
					return
				}
				var job Job
				if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
					addErr(err)
					return
				}
				addJob(job.ID)
			case 1: // deadline client: 429 (shed) and 202 both legal
				resp := postJSON(t, base+"/v1/simulate?deadline_ms=25", req)
				defer resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusAccepted:
					var job Job
					if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
						addErr(err)
						return
					}
					addJob(job.ID)
				case http.StatusTooManyRequests:
					// Shed before acceptance: nothing to track.
				default:
					addErr(fmt.Errorf("deadline client %d: status %d", i, resp.StatusCode))
				}
			case 2: // streaming client that disconnects after the start event
				resp := postJSON(t, base+"/v1/simulate?stream=1", req)
				if resp.StatusCode != http.StatusOK {
					resp.Body.Close()
					addErr(fmt.Errorf("stream client %d: status %d", i, resp.StatusCode))
					return
				}
				line, err := bufio.NewReader(resp.Body).ReadBytes('\n')
				resp.Body.Close()
				if err != nil {
					addErr(fmt.Errorf("stream client %d: %w", i, err))
					return
				}
				var start JobEvent
				if err := json.Unmarshal(line, &start); err != nil {
					addErr(fmt.Errorf("stream client %d: %w", i, err))
					return
				}
				addJob(start.JobID)
			case 3: // cancel client: 202 then DELETE shortly after
				resp := postJSON(t, base+"/v1/simulate", req)
				if resp.StatusCode != http.StatusAccepted {
					resp.Body.Close()
					addErr(fmt.Errorf("cancel client %d: status %d", i, resp.StatusCode))
					return
				}
				var job Job
				err := json.NewDecoder(resp.Body).Decode(&job)
				resp.Body.Close()
				if err != nil {
					addErr(err)
					return
				}
				addJob(job.ID)
				time.Sleep(5 * time.Millisecond)
				dreq, _ := http.NewRequest("DELETE", base+"/v1/jobs/"+job.ID, nil)
				dresp, err := http.DefaultClient.Do(dreq)
				if err != nil {
					addErr(err)
					return
				}
				dresp.Body.Close()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		t.Error(err)
	}
	if len(accepted) == 0 {
		t.Fatal("chaos storm accepted no jobs at all")
	}

	// Every accepted job reaches a terminal state, and its event stream
	// honors the per-subscriber ordering contract.
	for _, id := range accepted {
		j := waitJob(t, svc, id)
		if !terminalStatus(j.Status) {
			t.Fatalf("job %s stuck in %s", id, j.Status)
		}
		if j.Status == JobFailed && !strings.Contains(j.Error, "injected cell panic") {
			t.Errorf("job %s failed for a non-injected reason: %s", id, j.Error)
		}
		checkChaosTranscript(t, drainJobEvents(t, svc, id))
	}

	// Non-vacuity: the armed slow-worker point actually fired (hundreds
	// of draws at p=0.3 — a zero count means the seam is disconnected).
	if fault.Fired(fault.WorkerDelay) == 0 {
		t.Error("WorkerDelay fault point never fired — the seam is dead")
	}

	// The storm must leave the pool fully usable.
	fault.Reset()
	job, err := svc.Simulate(SimulateRequest{Workloads: []string{"SP"}, Schemes: []string{"BASE"}, Scale: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	if j := waitJob(t, svc, job.ID); j.Status != JobDone {
		t.Errorf("post-storm job ended %s: %s", j.Status, j.Error)
	}
}

// TestChaosSpillResilience drives the spill tier through its failure
// modes: write errors are counted and cost only warmth (Close still
// returns); a torn (truncated) entry that still gets renamed into
// place is caught by the checksum at the next startup's scan, so a
// restarted daemon starts cold rather than serving corrupt cells; and
// the recomputed results are identical to the pre-fault originals.
func TestChaosSpillResilience(t *testing.T) {
	fault.Reset()
	t.Cleanup(fault.Reset)
	testutil.CheckGoroutineLeaks(t)
	dir := filepath.Join(t.TempDir(), "spill")
	req := SimulateRequest{Workloads: []string{"SP", "NW"}, Schemes: []string{"BASE"}, Scale: "tiny"}

	// Phase 1: clean run, remember the true cell values.
	s1 := New(Config{Workers: 2, SpillDir: dir})
	job, err := s1.Simulate(req)
	if err != nil {
		t.Fatal(err)
	}
	j := waitJob(t, s1, job.ID)
	if j.Status != JobDone {
		t.Fatalf("clean sweep ended %s: %s", j.Status, j.Error)
	}
	truth := map[string]int64{}
	for _, c := range j.Result.Cells {
		truth[c.Workload+"/"+c.Scheme] = c.ExecTimePS
	}

	// Phase 2: every spill write fails. Close's shutdown spill must
	// count each failure and return without hanging — lost warmth,
	// never a lost shutdown.
	fault.InjectError(fault.SpillWrite, 1.0, nil)
	s1.Close()
	if got := s1.metrics.spillErrors.Value(); got < 2 {
		t.Errorf("spill errors = %v after an all-writes-fail shutdown, want >= 2", got)
	}
	if fault.Fired(fault.SpillWrite) == 0 {
		t.Fatal("SpillWrite fault point never fired — the seam is dead")
	}

	// Phase 3: torn writes get renamed into place. The entry files
	// exist but are truncated; the next daemon must detect and discard
	// them at scan time.
	fault.Reset()
	s2 := New(Config{Workers: 2, SpillDir: dir})
	job2, err := s2.Simulate(req)
	if err != nil {
		t.Fatal(err)
	}
	if j2 := waitJob(t, s2, job2.ID); j2.Status != JobDone {
		t.Fatalf("phase-3 sweep ended %s: %s", j2.Status, j2.Error)
	}
	fault.InjectFail(fault.SpillTorn, 1.0)
	s2.Close()
	if fault.Fired(fault.SpillTorn) == 0 {
		t.Fatal("SpillTorn fault point never fired — the seam is dead")
	}
	fault.Reset()

	// Phase 4: restart over the torn spill dir. The scan must remove
	// the damaged entries (cold start, not a crash), the sweep must
	// recompute rather than claim cached, and the recomputed values
	// must bit-match the phase-1 truth.
	s3 := New(Config{Workers: 2, SpillDir: dir})
	defer s3.Close()
	if n := s3.simCache.DiskLen(); n != 0 {
		t.Errorf("torn spill dir loaded %d entries, want a cold start", n)
	}
	if got := s3.metrics.spillErrors.Value(); got < 2 {
		t.Errorf("spill errors = %v after scanning torn entries, want >= 2", got)
	}
	job3, err := s3.Simulate(req)
	if err != nil {
		t.Fatal(err)
	}
	j3 := waitJob(t, s3, job3.ID)
	if j3.Status != JobDone {
		t.Fatalf("post-torn sweep ended %s: %s", j3.Status, j3.Error)
	}
	for _, c := range j3.Result.Cells {
		if c.Cached {
			t.Errorf("cell %s/%s claims cached after a torn spill", c.Workload, c.Scheme)
		}
		if got, want := c.ExecTimePS, truth[c.Workload+"/"+c.Scheme]; got != want {
			t.Errorf("cell %s/%s exec time = %d ps after recovery, want %d", c.Workload, c.Scheme, got, want)
		}
	}
}
