package service

import (
	"testing"
	"time"
)

// sweepOnce submits a 4-workload × 4-scheme sweep and waits for it.
func sweepOnce(b testing.TB, s *Service) SimulateResult {
	b.Helper()
	job, err := s.Simulate(SimulateRequest{
		Workloads: []string{"MT", "LU", "SC", "SP"},
		Schemes:   []string{"BASE", "PM", "PAE", "FAE"},
		Scale:     "tiny",
	})
	if err != nil {
		b.Fatal(err)
	}
	for {
		j, ok := s.Job(job.ID)
		if !ok {
			b.Fatalf("job %s vanished", job.ID)
		}
		switch j.Status {
		case JobDone:
			return *j.Result
		case JobFailed:
			b.Fatalf("sweep failed: %s", j.Error)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// BenchmarkSweep measures the full service sweep path end to end:
// dispatch, worker-pool fan-out, one shared trace build per workload,
// runner reuse, aggregation.
//
// "cold" rebuilds the service each iteration, so every cell simulates
// (16 cells, 4 trace builds). "warm" reuses one service, so after the
// first iteration every cell is a simulation-result cache hit — the
// repeated-sweep case the cache exists for.
func BenchmarkSweep(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := New(Config{})
			res := sweepOnce(b, s)
			s.Close()
			if len(res.Cells) != 16 {
				b.Fatalf("cells = %d", len(res.Cells))
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		s := New(Config{})
		defer s.Close()
		sweepOnce(b, s) // populate the simulation-result cache
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res := sweepOnce(b, s)
			if res.HMeanSpeedup["PAE"] <= 0 {
				b.Fatal("missing speedups")
			}
		}
	})
}

// TestSweepWarmAllocs is the warm-path allocation ceiling. A warm sweep
// is pure cache hits plus job, event-stream, span and histogram
// machinery, so its budget is small and flat in trace size. A leap past
// the ceiling means a cell started rebuilding traces, re-simulating,
// copying results per subscriber, or allocating per observation.
func TestSweepWarmAllocs(t *testing.T) {
	const ceiling = 400
	s := New(Config{})
	defer s.Close()
	sweepOnce(t, s) // populate the simulation-result cache
	allocs := testing.AllocsPerRun(20, func() { sweepOnce(t, s) })
	t.Logf("warm 4x4 sweep: %.0f allocs", allocs)
	if allocs > ceiling {
		t.Errorf("warm 4x4 sweep allocates %.0f times, ceiling %d", allocs, ceiling)
	}
}
