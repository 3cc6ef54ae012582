package cache

// Disk spill tier: a content-addressed store of serialized cache
// entries, one checksummed file per entry under two-level fan-out
// directories (ab/cdef...). Put writes the entry file before it
// returns, atomically via temp + rename. Reads verify the per-entry
// checksum and key; any damage — truncation, corruption, a key
// collision, a stray file — deletes the file and reads as a miss,
// because a cache is always allowed to forget. A byte-budget janitor
// deletes the oldest writes first after each write.
//
// Every change to the directory — a write, a removal, a janitor
// eviction, the deletion of a damaged file — happens under the store's
// lock, so the index always describes the directory and a Get for a
// key that is being written waits for its file. Files are read outside
// the lock.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sync"

	"valleymap/internal/fault"
)

// spillMagic brands one spill entry file; the trailing digit is the
// format version.
var spillMagic = [8]byte{'V', 'S', 'P', 'I', 'L', 'L', '0', '2'}

// DiskOptions configures a DiskStore. All callbacks may be nil and are
// invoked outside the store's lock; they must not call back into the
// store.
type DiskOptions struct {
	// Dir is the spill directory, created if missing.
	Dir string
	// MaxBytes bounds the indexed entry bytes; the janitor evicts the
	// oldest writes first to stay under it. <= 0 disables the budget.
	MaxBytes int64
	// OnWrite observes each entry file written.
	OnWrite func()
	// OnEvict observes janitor evictions.
	OnEvict func()
	// OnError observes spill damage: failed writes and corrupt or
	// unreadable entry files (each treated as a miss, never an error).
	OnError func()
}

type diskMeta struct {
	bytes int64  // whole entry file size
	seq   uint64 // write order: the janitor deletes the lowest first
}

// DiskStore is the disk-backed tier. All methods are safe for
// concurrent use.
type DiskStore struct {
	opt DiskOptions

	mu    sync.Mutex // held across every change to the directory
	index map[string]diskMeta
	bytes int64
	seq   uint64 // the last indexed entry's write order
}

// OpenDisk opens (creating if needed) a spill directory and rebuilds
// the in-memory index by scanning it: every entry file is read and
// fully validated, and damaged files are deleted on the spot. Entries
// found by the scan count as older than anything written since.
func OpenDisk(opt DiskOptions) (*DiskStore, error) {
	if opt.Dir == "" {
		return nil, errors.New("cache: spill dir must not be empty")
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: creating spill dir: %w", err)
	}
	d := &DiskStore{opt: opt, index: map[string]diskMeta{}}
	if err := d.scan(); err != nil {
		return nil, err
	}
	return d, nil
}

// entryPath fans the key's digest out over two directory levels so no
// single directory accumulates millions of entries.
func (d *DiskStore) entryPath(key string) string {
	sum := sha256.Sum256([]byte(key))
	hexsum := hex.EncodeToString(sum[:])
	return filepath.Join(d.opt.Dir, hexsum[:2], hexsum[2:])
}

// scan rebuilds the index from the fan-out directories. Anything that
// fails validation is removed; scan itself only fails on I/O errors
// listing the directories.
func (d *DiskStore) scan() error {
	subs, err := os.ReadDir(d.opt.Dir)
	if err != nil {
		return fmt.Errorf("cache: scanning spill dir: %w", err)
	}
	for _, sub := range subs {
		if !sub.IsDir() || len(sub.Name()) != 2 {
			continue
		}
		files, err := os.ReadDir(filepath.Join(d.opt.Dir, sub.Name()))
		if err != nil {
			return fmt.Errorf("cache: scanning spill dir: %w", err)
		}
		for _, f := range files {
			if f.IsDir() {
				continue
			}
			path := filepath.Join(d.opt.Dir, sub.Name(), f.Name())
			key, _, err := readEntryFile(path)
			// A valid entry away from its key's path, such as one left
			// under a temp name by a write that stopped before its
			// rename, is damage too.
			if err != nil || path != d.entryPath(key) {
				os.Remove(path)
				d.observe(d.opt.OnError)
				continue
			}
			st, err := os.Stat(path)
			if err != nil {
				continue
			}
			d.seq++
			d.index[key] = diskMeta{bytes: st.Size(), seq: d.seq}
			d.bytes += st.Size()
		}
	}
	return nil
}

// Put writes one entry file and indexes it before it returns, then
// lets the janitor trim the directory to the byte budget. The store
// keeps no reference to payload. A failed write is counted through
// OnError and leaves any earlier entry for key in place.
func (d *DiskStore) Put(key string, payload []byte) {
	d.mu.Lock()
	size, err := d.writeEntry(key, payload)
	if err == nil {
		if old, ok := d.index[key]; ok {
			d.bytes -= old.bytes
		}
		d.seq++
		d.index[key] = diskMeta{bytes: size, seq: d.seq}
		d.bytes += size
	}
	evicted := d.janitorLocked()
	d.mu.Unlock()

	if err != nil {
		d.observe(d.opt.OnError)
	} else {
		d.observe(d.opt.OnWrite)
	}
	for ; evicted > 0; evicted-- {
		d.observe(d.opt.OnEvict)
	}
}

// Get returns the stored payload for key. The entry file is read and
// fully verified; any damage deletes the file and reads as a miss.
func (d *DiskStore) Get(key string) ([]byte, bool) {
	// Taking the lock waits out a Put that is writing this key.
	d.mu.Lock()
	_, ok := d.index[key]
	d.mu.Unlock()
	if !ok {
		return nil, false
	}
	if err := fault.Err(fault.SpillRead); err != nil {
		d.observe(d.opt.OnError)
		return nil, false
	}
	gotKey, payload, err := readEntryFile(d.entryPath(key))
	if err == nil && gotKey != key {
		// A digest collision or a foreign file at this path: neither is
		// our entry.
		err = fmt.Errorf("cache: spill entry holds key %q, want %q", gotKey, key)
	}
	if err != nil {
		d.Remove(key)
		if !errors.Is(err, fs.ErrNotExist) {
			d.observe(d.opt.OnError)
		}
		return nil, false
	}
	return payload, true
}

// Contains reports whether key is indexed, without touching the disk.
func (d *DiskStore) Contains(key string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.index[key]
	return ok
}

// touch reports whether key is indexed and, if so, gives it the next
// write order, as if its file had just been written. It touches only
// the index, never the disk.
func (d *DiskStore) touch(key string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	meta, ok := d.index[key]
	if ok {
		d.seq++
		meta.seq = d.seq
		d.index[key] = meta
	}
	return ok
}

// Remove deletes key's entry file, if any.
func (d *DiskStore) Remove(key string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.removeLocked(key)
}

func (d *DiskStore) removeLocked(key string) {
	if meta, ok := d.index[key]; ok {
		d.bytes -= meta.bytes
		delete(d.index, key)
		os.Remove(d.entryPath(key))
	}
}

// Len reports the indexed entries.
func (d *DiskStore) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.index)
}

// Bytes reports the indexed entries' file bytes.
func (d *DiskStore) Bytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.bytes
}

// janitorLocked deletes entries, oldest write first, until the indexed
// bytes fit the budget and reports how many it deleted.
func (d *DiskStore) janitorLocked() int {
	if d.opt.MaxBytes <= 0 {
		return 0
	}
	n := 0
	for ; d.bytes > d.opt.MaxBytes && len(d.index) > 0; n++ {
		victimKey, oldest := "", uint64(math.MaxUint64)
		for key, meta := range d.index {
			if meta.seq < oldest {
				victimKey, oldest = key, meta.seq
			}
		}
		d.removeLocked(victimKey)
	}
	return n
}

func (d *DiskStore) observe(fn func()) {
	if fn != nil {
		fn()
	}
}

// writeEntry lands one entry file atomically (temp + rename in the
// fan-out directory). The SpillWrite fault seam fails the write before
// any bytes land; SpillTorn truncates the framed bytes but lets the
// rename publish the torn file — caught later by Get's checksum.
func (d *DiskStore) writeEntry(key string, payload []byte) (int64, error) {
	if err := fault.Err(fault.SpillWrite); err != nil {
		return 0, err
	}
	framed := encodeEntry(key, payload)
	out := fault.Torn(fault.SpillTorn, framed)
	path := d.entryPath(key)
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	tmp, err := os.CreateTemp(dir, ".spill*")
	if err != nil {
		return 0, err
	}
	_, werr := tmp.Write(out)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return 0, errors.Join(werr, cerr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return 0, err
	}
	return int64(len(out)), nil
}

// Entry file layout (integers little-endian):
//
//	magic   [8]byte  "VSPILL02"
//	keyLen  uint32
//	payLen  uint64
//	key     []byte
//	payload []byte
//	sum     [32]byte SHA-256 of everything above
//
// A file of any other version fails the magic check, so the startup
// scan deletes it as damage.
const spillHeaderLen = 8 + 4 + 8

func encodeEntry(key string, payload []byte) []byte {
	buf := make([]byte, 0, spillHeaderLen+len(key)+len(payload)+sha256.Size)
	buf = append(buf, spillMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(key)))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, key...)
	buf = append(buf, payload...)
	sum := sha256.Sum256(buf)
	return append(buf, sum[:]...)
}

// readEntryFile reads and fully validates one entry file. Every
// failure mode is an error; callers treat any error (other than
// fs.ErrNotExist) as damage.
func readEntryFile(path string) (key string, payload []byte, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", nil, err
	}
	if len(data) < spillHeaderLen+sha256.Size {
		return "", nil, errors.New("cache: spill entry truncated")
	}
	if !bytes.Equal(data[:8], spillMagic[:]) {
		return "", nil, fmt.Errorf("cache: spill entry magic %q is not %q", data[:8], spillMagic[:])
	}
	keyLen := binary.LittleEndian.Uint32(data[8:12])
	payLen := binary.LittleEndian.Uint64(data[12:20])
	body := uint64(len(data) - spillHeaderLen - sha256.Size)
	if uint64(keyLen)+payLen != body {
		return "", nil, fmt.Errorf("cache: spill entry lengths %d+%d do not match %d body bytes", keyLen, payLen, body)
	}
	sumStart := spillHeaderLen + int(keyLen) + int(payLen)
	sum := sha256.Sum256(data[:sumStart])
	if !bytes.Equal(sum[:], data[sumStart:]) {
		return "", nil, errors.New("cache: spill entry checksum mismatch")
	}
	key = string(data[spillHeaderLen : spillHeaderLen+int(keyLen)])
	return key, data[spillHeaderLen+int(keyLen) : sumStart], nil
}
