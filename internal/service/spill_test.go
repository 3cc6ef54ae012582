package service

import (
	"io/fs"
	"path/filepath"
	"testing"
)

// spillFiles counts the entry files in a spill directory.
func spillFiles(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			n++
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func runSweepToDone(t *testing.T, s *Service, req SimulateRequest) *SimulateResult {
	t.Helper()
	job, err := s.Simulate(req)
	if err != nil {
		t.Fatal(err)
	}
	final := waitJob(t, s, job.ID)
	if final.Status != JobDone {
		t.Fatalf("job ended %s: %s", final.Status, final.Error)
	}
	return final.Result
}

// TestSpillRestartWarm is the acceptance criterion: a valleyd restart
// over a warm spill directory followed by the same sweep request
// reports cached: true for every previously computed cell — including
// cells that were evicted from the memory tier mid-sweep.
func TestSpillRestartWarm(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "spill")
	req := SimulateRequest{Workloads: []string{"SP", "NW"}, Schemes: []string{"BASE", "PAE"}, Scale: "tiny"}

	// Memory capacity 1 forces three of the four cells to be evicted
	// (and spilled) while the sweep is still running.
	s1 := New(Config{Workers: 2, SimCacheEntries: 1, SpillDir: dir})
	cold := runSweepToDone(t, s1, req)
	for _, c := range cold.Cells {
		if c.Cached {
			t.Errorf("cold cell %s/%s reported cached", c.Workload, c.Scheme)
		}
	}
	if mem, disk := s1.simCache.Len(), spillFiles(t, dir); mem != 1 || disk != 3 {
		t.Fatalf("after the cold sweep %d cells in memory and %d spilled, want 1 and 3", mem, disk)
	}
	s1.Close() // spills the resident tail
	if writes, _, _ := s1.Metrics().SpillCounts(); writes < 4 {
		t.Fatalf("spilled %d entries across eviction + Close, want >= 4", writes)
	}

	// "Restart": a brand-new service over the same spill directory,
	// still with memory capacity 1, so at most one cell can possibly be
	// served from memory — the rest must promote from disk.
	s2 := New(Config{Workers: 2, SimCacheEntries: 1, SpillDir: dir})
	defer s2.Close()
	if n := spillFiles(t, dir); n < 4 {
		t.Fatalf("restarted service found %d spill entries, want >= 4", n)
	}
	warm := runSweepToDone(t, s2, req)
	for i, c := range warm.Cells {
		if !c.Cached {
			t.Errorf("cell %s/%s not served from the spill tier", c.Workload, c.Scheme)
		}
		if c.ResultJSON != cold.Cells[i].ResultJSON {
			t.Errorf("cell %s/%s metrics drifted across the restart", c.Workload, c.Scheme)
		}
	}
	if hits, misses := s2.Metrics().SimCacheCounts(); hits != 4 || misses != 0 {
		t.Errorf("restarted sweep hits=%d misses=%d, want 4/0", hits, misses)
	}
	if _, disk := s2.Metrics().TierHits(); disk == 0 {
		t.Error("no tier=disk hits recorded — the warm sweep never touched the spill store")
	}
}
