package gpusim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"valleymap/internal/mapping"
	"valleymap/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from current output")

// TestGoldenResultsDigest pins simulator output bit for bit: every
// valley and non-valley workload under every scheme at tiny scale, BIM
// seed 1, on one Runner, marshaled in grid order and hashed. Any change
// to a model, a timing, a workload generator or the engine's event
// order moves the digest. A speed-up must leave it alone; run with
// -update only after an intentional model change.
//
// It also pins the grid's total count of events fired, which a model
// change moves and a queue change must not, and holds the queue's
// relinks to its bound: the engine's timing wheel has six levels, so no
// event moves more than five times.
func TestGoldenResultsDigest(t *testing.T) {
	cfg := Baseline()
	r := NewRunner()
	var grid []Result
	var events, relinks uint64
	for _, specs := range [][]workload.Spec{workload.ValleySet(), workload.NonValleySet()} {
		for _, spec := range specs {
			app := spec.Build(workload.Tiny)
			for _, s := range mapping.Schemes() {
				m := mapping.MustNew(s, cfg.Layout, mapping.Options{Seed: 1})
				grid = append(grid, r.Run(app, m, cfg))
				ev, rl := r.EngineCounts()
				events += ev
				relinks += rl
			}
		}
	}
	b, err := json.Marshal(grid)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	got := hex.EncodeToString(sum[:])
	t.Logf("%d cells: %d events fired, %d relinks (%.3f per event)", len(grid), events, relinks, float64(relinks)/float64(events))
	if relinks > 5*events {
		t.Errorf("the queue relinked %d times for %d events, want at most 5 per event", relinks, events)
	}

	goldenPath := filepath.Join("testdata", "results_tiny.sha256")
	eventsPath := filepath.Join("testdata", "events_tiny.txt")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(eventsPath, []byte(strconv.FormatUint(events, 10)+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: %s (%d cells, %d JSON bytes), %s", goldenPath, len(grid), len(b), eventsPath)
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create it): %v", err)
	}
	if w := strings.TrimSpace(string(want)); got != w {
		t.Fatalf("simulator output drifted: %d cells hash to %s, golden %s (run with -update if the model changed on purpose)", len(grid), got, w)
	}
	wantEvents, err := os.ReadFile(eventsPath)
	if err != nil {
		t.Fatalf("reading golden event count (run with -update to create it): %v", err)
	}
	if w := strings.TrimSpace(string(wantEvents)); strconv.FormatUint(events, 10) != w {
		t.Fatalf("the grid fired %d events, golden %s (run with -update if the model changed on purpose)", events, w)
	}
}
