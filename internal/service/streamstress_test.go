package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"valleymap/internal/testutil"
)

// TestStressStreamingClients hammers the event streams with -race on: many
// concurrent streaming clients, half disconnecting mid-stream, over one
// running sweep. Asserts: no event is delivered twice to any client
// (dense ascending seq per connection), full-stream clients see every
// cell before the terminal event, and the goroutine count returns to
// baseline once clients and service are gone.
func TestStressStreamingClients(t *testing.T) {
	baseline := runtime.NumGoroutine()

	svc := New(Config{Workers: 2})
	ts := httptest.NewServer(svc.Handler())

	job, err := svc.Simulate(SimulateRequest{
		Workloads: []string{"MT", "LU", "SC", "SP"},
		Schemes:   []string{"BASE", "PAE"},
		Scale:     "tiny",
	})
	if err != nil {
		t.Fatal(err)
	}

	const clients = 24
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			disconnect := i%2 == 1
			if err := streamClient(ts, job.ID, disconnect); err != nil {
				errs <- fmt.Errorf("client %d: %w", i, err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if j := waitJob(t, svc, job.ID); j.Status != JobDone {
		t.Fatalf("sweep ended %s: %s", j.Status, j.Error)
	}

	ts.Close()
	svc.Close()
	testutil.WaitGoroutines(t, baseline)
}

// streamClient reads one event stream, checking per-connection delivery
// invariants. With disconnect set, it drops the connection after the
// first few events (the mid-stream disconnect case).
func streamClient(ts *httptest.Server, jobID string, disconnect bool) error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/jobs/"+jobID+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}

	br := bufio.NewReader(resp.Body)
	next := 0
	sawTerminal := false
	for {
		line, err := br.ReadBytes('\n')
		if err == io.EOF || (err != nil && disconnect && ctx.Err() == nil) {
			break
		}
		if err != nil {
			if sawTerminal {
				break
			}
			return err
		}
		var ev JobEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return fmt.Errorf("bad event line %q: %w", line, err)
		}
		// The delivery invariant: dense ascending seq — a duplicate or
		// out-of-order delivery breaks this immediately.
		if ev.Seq != next {
			return fmt.Errorf("got seq %d, want %d (duplicate or gap)", ev.Seq, next)
		}
		next++
		switch ev.Type {
		case EventDone, EventFailed:
			sawTerminal = true
		case EventCell:
			if sawTerminal {
				return fmt.Errorf("cell event after terminal")
			}
		}
		if disconnect && next >= 3 {
			cancel() // hard mid-stream disconnect
			return nil
		}
		if sawTerminal {
			return nil
		}
	}
	if !disconnect && !sawTerminal {
		return fmt.Errorf("stream ended without terminal event")
	}
	return nil
}

// TestStressRestartMidSweep: a service shut down while a sweep is
// running drains cleanly (Close waits for in-flight cells), spills
// what it computed, and a restarted service over the same spill dir
// serves the repeat sweep entirely from cache while its own streaming
// clients see a well-formed event stream.
func TestStressRestartMidSweep(t *testing.T) {
	baseline := runtime.NumGoroutine()
	dir := filepath.Join(t.TempDir(), "spill")
	req := SimulateRequest{
		Workloads: []string{"MT", "LU", "SP"},
		Schemes:   []string{"BASE", "PAE"},
		Scale:     "tiny",
	}

	s1 := New(Config{Workers: 2, SpillDir: dir})
	job, err := s1.Simulate(req)
	if err != nil {
		t.Fatal(err)
	}
	// Subscribe a client, observe at least one cell land, then
	// "restart" the daemon under it: Close drains the sweep, spills the
	// cache, and terminates the stream cleanly for the subscriber.
	sub, ok := s1.JobEvents(job.ID, 0)
	if !ok {
		t.Fatal("subscribe failed")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	seenCell := false
	for !seenCell {
		ev, eos, err := sub.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if eos {
			break
		}
		seenCell = ev.Type == EventCell
	}
	sub.Close()
	if !seenCell {
		t.Fatal("no cell observed before restart")
	}
	s1.Close()
	if j, ok := s1.Job(job.ID); !ok || j.Status != JobDone {
		t.Fatalf("drained job status: %+v", j)
	}

	// Restart: the same sweep must be all cache hits, delivered over a
	// fresh streaming connection with the full event contract intact.
	s2 := New(Config{Workers: 2, SpillDir: dir})
	ts := httptest.NewServer(s2.Handler())
	resp := postJSON(t, ts.URL+"/v1/simulate?stream=1", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	evs := collectEvents(t, resp.Body)
	resp.Body.Close()
	checkTranscript(t, evs, 0, 6)
	for _, ev := range evs {
		if ev.Type == EventCell && !ev.Cell.Cached {
			t.Errorf("post-restart cell %s/%s not served from the restored cache", ev.Cell.Workload, ev.Cell.Scheme)
		}
	}

	ts.Close()
	s2.Close()
	testutil.WaitGoroutines(t, baseline)
}
