//go:build faultinject

package cache

// Chaos tests for the spill tier's fault seams. Built only with
// -tags faultinject; CI runs them with -race. The invariant under every
// injected fault is the damage policy: the spill tier may forget (a
// failed or torn entry reads as a miss and is recomputed) but may never
// lie (serve corrupt bytes) or take the process down.

import (
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"valleymap/internal/fault"
)

// TestChaosSpillWriteFailure: with every spill write failing, Put
// never errors or hangs, each failure is counted via OnError, and the
// entries simply never land — a miss on the next read, not corruption.
func TestChaosSpillWriteFailure(t *testing.T) {
	fault.Reset()
	t.Cleanup(fault.Reset)
	var errs atomic.Int64
	d := openTestDisk(t, DiskOptions{OnError: func() { errs.Add(1) }})

	fault.InjectError(fault.SpillWrite, 1.0, nil)
	d.Put("k1", []byte("v1"))
	d.Put("k2", []byte("v2"))

	if got := errs.Load(); got != 2 {
		t.Errorf("OnError fired %d times for 2 failed writes", got)
	}
	if fault.Fired(fault.SpillWrite) == 0 {
		t.Fatal("SpillWrite fault point never fired — the seam is dead")
	}
	if d.Len() != 0 || d.Bytes() != 0 {
		t.Errorf("failed writes were indexed: Len=%d Bytes=%d", d.Len(), d.Bytes())
	}
	fault.Reset()
	if _, ok := d.Get("k1"); ok {
		t.Error("failed write still readable")
	}
	// The store must keep working once the fault clears.
	d.Put("k3", []byte("v3"))
	if _, ok := d.Get("k3"); !ok {
		t.Error("store did not recover after write faults cleared")
	}
}

// TestChaosSpillTornWrite: a torn write publishes a truncated file; the
// next Get detects it via the checksum, deletes the file, and reports a
// miss — never partial bytes.
func TestChaosSpillTornWrite(t *testing.T) {
	fault.Reset()
	t.Cleanup(fault.Reset)
	var errs atomic.Int64
	dir := filepath.Join(t.TempDir(), "spill")
	d := openTestDisk(t, DiskOptions{Dir: dir, OnError: func() { errs.Add(1) }})

	fault.InjectFail(fault.SpillTorn, 1.0)
	d.Put("k", []byte("a payload long enough to tear"))
	if fault.Fired(fault.SpillTorn) == 0 {
		t.Fatal("SpillTorn never fired — the seam is dead")
	}
	fault.Reset()

	// The torn file landed (the write itself "succeeded") and was even
	// indexed — the damage is only discoverable by reading it.
	if _, err := os.Stat(d.entryPath("k")); err != nil {
		t.Fatalf("torn entry file did not land: %v", err)
	}
	if payload, ok := d.Get("k"); ok {
		t.Fatalf("Get served %q from a torn entry", payload)
	}
	if errs.Load() == 0 {
		t.Error("torn entry read did not count an OnError")
	}
	if d.Contains("k") {
		t.Error("torn entry still indexed after detection")
	}
	// Re-put must land clean now.
	d.Put("k", []byte("fresh"))
	if payload, ok := d.Get("k"); !ok || string(payload) != "fresh" {
		t.Errorf("re-put after torn entry = (%q, %v)", payload, ok)
	}
}

// TestChaosSpillTornSurvivesRestart: torn entries left by a crashed
// writer are swept out by the next OpenDisk scan.
func TestChaosSpillTornSurvivesRestart(t *testing.T) {
	fault.Reset()
	t.Cleanup(fault.Reset)
	dir := filepath.Join(t.TempDir(), "spill")
	d1 := openTestDisk(t, DiskOptions{Dir: dir})
	fault.InjectFail(fault.SpillTorn, 1.0)
	d1.Put("k1", []byte("a payload long enough to tear"))
	d1.Put("k2", []byte("another payload long enough to tear"))
	if fault.Fired(fault.SpillTorn) == 0 {
		t.Fatal("SpillTorn never fired — the seam is dead")
	}
	fault.Reset()

	var errs atomic.Int64
	d2 := openTestDisk(t, DiskOptions{Dir: dir, OnError: func() { errs.Add(1) }})
	if d2.Len() != 0 {
		t.Errorf("scan indexed %d torn entries, want 0", d2.Len())
	}
	if errs.Load() != 2 {
		t.Errorf("scan counted %d damaged entries, want 2", errs.Load())
	}
}

// TestChaosSpillReadFailure: a failing read degrades to a miss and an
// OnError count; the entry file and index survive for the next,
// healthy read.
func TestChaosSpillReadFailure(t *testing.T) {
	fault.Reset()
	t.Cleanup(fault.Reset)
	var errs atomic.Int64
	d := openTestDisk(t, DiskOptions{OnError: func() { errs.Add(1) }})
	d.Put("k", []byte("v"))

	fault.InjectError(fault.SpillRead, 1.0, nil)
	if _, ok := d.Get("k"); ok {
		t.Fatal("Get succeeded under an injected read fault")
	}
	if errs.Load() != 1 {
		t.Errorf("OnError fired %d times for 1 failed read", errs.Load())
	}
	if fault.Fired(fault.SpillRead) == 0 {
		t.Fatal("SpillRead fault point never fired — the seam is dead")
	}
	fault.Reset()
	// A transient read fault must not have destroyed the entry.
	if payload, ok := d.Get("k"); !ok || string(payload) != "v" {
		t.Errorf("entry gone after a transient read fault: (%q, %v)", payload, ok)
	}
}

// TestChaosLRUSpillFaultsDegradeToRecompute: the full two-tier path
// under write faults — evictions fail to spill, lookups recompute the
// right value, and GetOrCompute never surfaces a spill error.
func TestChaosLRUSpillFaultsDegradeToRecompute(t *testing.T) {
	fault.Reset()
	t.Cleanup(fault.Reset)
	c := newTestLRU(1, openTestDisk(t, DiskOptions{}))

	fault.InjectError(fault.SpillWrite, 1.0, nil)
	put(t, c, "a", testCell{N: 1})
	put(t, c, "b", testCell{N: 2}) // evicts a; its spill write fails
	fault.Reset()

	v, hit, err := c.GetOrCompute("a", func() (testCell, error) { return testCell{N: 1}, nil })
	if err != nil || v.N != 1 {
		t.Fatalf("lookup after failed spill = (%+v, hit %v, %v)", v, hit, err)
	}
	if hit {
		t.Error("hit for an entry whose spill failed, want a miss (recompute)")
	}
}
