package cache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

func openTestDisk(t *testing.T, opt DiskOptions) *DiskStore {
	t.Helper()
	if opt.Dir == "" {
		opt.Dir = filepath.Join(t.TempDir(), "spill")
	}
	d, err := OpenDisk(opt)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDiskRoundTrip: the entry file sits under the two-level fan-out
// layout, counted by Len and Bytes, as soon as Put returns, and Get
// returns the exact payload.
func TestDiskRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "spill")
	d := openTestDisk(t, DiskOptions{Dir: dir})
	d.Put("sim|SP|tiny|BASE", []byte(`{"exec_ps":123}`))

	sum := hex.EncodeToString(func() []byte { h := sha256.Sum256([]byte("sim|SP|tiny|BASE")); return h[:] }())
	want := filepath.Join(dir, sum[:2], sum[2:])
	st, err := os.Stat(want)
	if err != nil {
		t.Fatalf("entry not at fan-out path %s after Put returned: %v", want, err)
	}
	if d.Len() != 1 || d.Bytes() != st.Size() {
		t.Errorf("Len=%d Bytes=%d after one %d-byte entry, want 1 and %d", d.Len(), d.Bytes(), st.Size(), st.Size())
	}

	payload, ok := d.Get("sim|SP|tiny|BASE")
	if !ok || string(payload) != `{"exec_ps":123}` {
		t.Fatalf("Get = (%q, %v)", payload, ok)
	}
}

// TestDiskJanitorEvictsOldest: over the byte budget, the janitor
// removes the oldest writes (and their files) until the landed bytes
// fit, counting each via OnEvict. Entries found by the startup scan
// are older than anything written after it.
func TestDiskJanitorEvictsOldest(t *testing.T) {
	var evictions atomic.Int64
	payload := make([]byte, 256)
	// Entry file size = header(20) + keyLen + 256 + sha(32); with 2-byte
	// keys each entry is 310 bytes. Budget for two entries.
	dir := filepath.Join(t.TempDir(), "spill")
	d := openTestDisk(t, DiskOptions{
		Dir:      dir,
		MaxBytes: 700,
		OnEvict:  func() { evictions.Add(1) },
	})
	d.Put("aa", payload) // oldest write — the victim
	d.Put("bb", payload)
	d.Get("aa")          // a read does not refresh write order
	d.Put("cc", payload) // pushes bytes over 700

	if got := evictions.Load(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	if d.Contains("aa") {
		t.Error("janitor kept the oldest entry aa")
	}
	for _, k := range []string{"bb", "cc"} {
		if _, ok := d.Get(k); !ok {
			t.Errorf("janitor evicted newer entry %s", k)
		}
	}
	if d.Bytes() > 700 {
		t.Errorf("Bytes = %d, still over the 700 budget", d.Bytes())
	}
	// The victim's file must be gone, not just unindexed.
	sum := sha256.Sum256([]byte("aa"))
	hexsum := hex.EncodeToString(sum[:])
	if _, err := os.Stat(filepath.Join(d.opt.Dir, hexsum[:2], hexsum[2:])); !os.IsNotExist(err) {
		t.Errorf("evicted entry file still on disk: %v", err)
	}

	// Reopened, the store holds bb and cc from its scan; a new write
	// over the budget evicts one of them, never itself.
	d2 := openTestDisk(t, DiskOptions{Dir: dir, MaxBytes: 700})
	d2.Put("dd", payload)
	if d2.Len() != 2 || !d2.Contains("dd") {
		t.Errorf("after a write over scanned entries: Len=%d, dd kept=%v; want 2, true", d2.Len(), d2.Contains("dd"))
	}
}

// TestDiskDamagedEntryIsMissAndRemoved: flipping a byte in a landed
// entry file makes Get report a miss, delete the file, and count one
// OnError — never return corrupt bytes.
func TestDiskDamagedEntryIsMissAndRemoved(t *testing.T) {
	var errs atomic.Int64
	dir := filepath.Join(t.TempDir(), "spill")
	d := openTestDisk(t, DiskOptions{Dir: dir, OnError: func() { errs.Add(1) }})
	d.Put("k", []byte("precious"))

	path := d.entryPath("k")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-40] ^= 0xff // a payload byte under the checksum
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if payload, ok := d.Get("k"); ok {
		t.Fatalf("Get returned %q from a corrupt entry", payload)
	}
	if errs.Load() != 1 {
		t.Errorf("OnError fired %d times, want 1", errs.Load())
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("corrupt entry file not deleted")
	}
	if d.Contains("k") {
		t.Error("corrupt entry still indexed")
	}
}

// TestDiskReopenScan: a fresh DiskStore over an existing directory
// rebuilds the index from the entry files, deleting any damaged ones on
// the spot; valid neighbours survive. An intact entry of the old
// VSPILL01 format counts as damage too.
func TestDiskReopenScan(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "spill")
	d1 := openTestDisk(t, DiskOptions{Dir: dir})
	d1.Put("good", []byte("payload-1"))
	d1.Put("bad", []byte("payload-2"))
	badPath := d1.entryPath("bad")

	// Truncate one entry behind the store's back (a crash mid-rename on
	// a filesystem without atomic rename, a disk error, operator damage).
	if err := os.Truncate(badPath, 10); err != nil {
		t.Fatal(err)
	}
	// And drop a stray file the scanner must skip, not crash on.
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("not an entry"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A complete, correctly checksummed VSPILL01 entry at its key's
	// path: magic, key and payload lengths, a float64 cost, key,
	// payload, SHA-256.
	old := []byte("VSPILL01")
	old = binary.LittleEndian.AppendUint32(old, 3)
	old = binary.LittleEndian.AppendUint64(old, 9)
	old = binary.LittleEndian.AppendUint64(old, math.Float64bits(1.5))
	old = append(old, "oldpayload-3"...)
	sum := sha256.Sum256(old)
	oldPath := d1.entryPath("old")
	if err := os.MkdirAll(filepath.Dir(oldPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(oldPath, append(old, sum[:]...), 0o644); err != nil {
		t.Fatal(err)
	}

	var errs atomic.Int64
	d2 := openTestDisk(t, DiskOptions{Dir: dir, OnError: func() { errs.Add(1) }})
	if d2.Len() != 1 {
		t.Fatalf("reopened store indexed %d entries, want 1", d2.Len())
	}
	if payload, ok := d2.Get("good"); !ok || string(payload) != "payload-1" {
		t.Errorf("surviving entry = (%q, %v)", payload, ok)
	}
	if d2.Contains("bad") {
		t.Error("truncated entry resurrected by the scan")
	}
	if d2.Contains("old") {
		t.Error("VSPILL01 entry indexed by the scan")
	}
	if errs.Load() != 2 {
		t.Errorf("scan counted %d damaged entries, want 2", errs.Load())
	}
	for _, p := range []string{badPath, oldPath} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("scan left the damaged file %s on disk", p)
		}
	}
}

// TestDiskSupersededWrite: a newer Put for a key that is mid-write wins
// — after both land, Get returns the newer payload.
func TestDiskSupersededWrite(t *testing.T) {
	d := openTestDisk(t, DiskOptions{})
	for i := 0; i < 50; i++ {
		d.Put("k", []byte(fmt.Sprintf("v%d", i)))
	}
	if payload, ok := d.Get("k"); !ok || string(payload) != "v49" {
		t.Errorf("Get after superseding writes = (%q, %v), want (v49, true)", payload, ok)
	}
	if d.Len() != 1 {
		t.Errorf("Len = %d after 50 writes of one key, want 1", d.Len())
	}
}

// TestDiskRemove removes the index entry and the entry file.
func TestDiskRemove(t *testing.T) {
	d := openTestDisk(t, DiskOptions{})
	d.Put("k", []byte("v"))
	path := d.entryPath("k")
	d.Remove("k")
	if d.Contains("k") {
		t.Error("removed key still resident")
	}
	if _, ok := d.Get("k"); ok {
		t.Error("removed key still readable")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("removed key's file still on disk")
	}
}

// TestDiskConcurrentStorm is the -race workout for the spill store:
// writers, readers and removers hammering overlapping keys. Every Put
// reports exactly one OnWrite or OnError, and afterwards the index
// describes the directory: each indexed key's file exists, and Bytes
// equals their summed sizes.
func TestDiskConcurrentStorm(t *testing.T) {
	var puts, writes, errs atomic.Int64
	d := openTestDisk(t, DiskOptions{
		MaxBytes: 1 << 20,
		OnWrite:  func() { writes.Add(1) },
		OnError:  func() { errs.Add(1) },
	})
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			r := uint64(seed)*0x9e3779b9 + 1
			for i := 0; i < 500; i++ {
				r ^= r << 13
				r ^= r >> 7
				r ^= r << 17
				k := fmt.Sprintf("k%d", r%64)
				switch r % 5 {
				case 0, 1:
					puts.Add(1)
					d.Put(k, []byte(fmt.Sprintf("payload-%d", r%1000)))
				case 2:
					d.Get(k)
				case 3:
					d.Contains(k)
				default:
					d.Remove(k)
				}
			}
		}(g)
	}
	wg.Wait()
	if w, e, p := writes.Load(), errs.Load(), puts.Load(); w+e != p {
		t.Errorf("OnWrite %d + OnError %d != %d Puts", w, e, p)
	}
	var files int64
	for key := range d.index {
		st, err := os.Stat(d.entryPath(key))
		if err != nil {
			t.Errorf("indexed key %s has no entry file: %v", key, err)
			continue
		}
		files += st.Size()
	}
	if d.Bytes() != files {
		t.Errorf("Bytes = %d, indexed entry files hold %d", d.Bytes(), files)
	}
}

// TestDiskScanDropsUnrenamedEntry: a complete entry left under a temp
// name by a write that stopped before its rename is damage. The scan
// deletes it and counts it, so it neither doubles the entry's bytes nor
// lingers in the directory.
func TestDiskScanDropsUnrenamedEntry(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "spill")
	d1 := openTestDisk(t, DiskOptions{Dir: dir})
	d1.Put("k", []byte("v"))
	path := d1.entryPath("k")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(filepath.Dir(path), ".spill123")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var errs atomic.Int64
	d2 := openTestDisk(t, DiskOptions{Dir: dir, OnError: func() { errs.Add(1) }})
	if d2.Len() != 1 || d2.Bytes() != int64(len(data)) {
		t.Errorf("reopened store: Len=%d Bytes=%d, want 1 and %d", d2.Len(), d2.Bytes(), len(data))
	}
	if errs.Load() != 1 {
		t.Errorf("scan counted %d damaged entries, want 1", errs.Load())
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Errorf("scan left the unrenamed entry on disk: %v", err)
	}
	if payload, ok := d2.Get("k"); !ok || string(payload) != "v" {
		t.Errorf("Get(k) = (%q, %v), want (v, true)", payload, ok)
	}
}
