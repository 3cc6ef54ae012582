package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// encodeBinary is the test shorthand for WriteBinary into memory.
func encodeBinary(t testing.TB, app *App) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, app); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// writeTempTrace materializes data as a file for the mmap path.
func writeTempTrace(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.vtrc")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestBinaryRoundTrip(t *testing.T) {
	app := sampleApp()
	data := encodeBinary(t, app)
	bs := NewBinaryStream(bytes.NewReader(data))
	back, err := CollectStream(bs, bs.Info())
	if err != nil {
		t.Fatal(err)
	}
	sum := bs.SHA256()
	if len(back.Kernels) != len(app.Kernels) {
		t.Fatalf("kernels = %d, want %d", len(back.Kernels), len(app.Kernels))
	}
	for ki := range app.Kernels {
		a, b := &app.Kernels[ki], &back.Kernels[ki]
		if a.Name != b.Name || a.WarpsPerTB != b.WarpsPerTB || a.ComputeGapCycles != b.ComputeGapCycles {
			t.Errorf("kernel %d header differs: %+v vs %+v", ki, a, b)
		}
		if !reflect.DeepEqual(a.TBs, b.TBs) {
			t.Errorf("kernel %d TBs differ", ki)
		}
	}
	// The end-section checksum IS the canonical identity: re-encoding the
	// decoded app is bit-identical, and the digest matches CSV's for the
	// same records.
	if again := encodeBinary(t, back); !bytes.Equal(data, again) {
		t.Error("re-encode is not bit-identical")
	}
	var csv bytes.Buffer
	if err := WriteCSV(&csv, app); err != nil {
		t.Fatal(err)
	}
	cs := NewCSVStream(bytes.NewReader(csv.Bytes()))
	if _, err := CollectStream(cs, cs.Info()); err != nil {
		t.Fatal(err)
	}
	if csvSum := cs.SHA256(); sum != csvSum {
		t.Errorf("binary hash %s != csv hash %s for the same trace", sum, csvSum)
	}
}

// TestBinaryStreamBatchShape: the binary decoder emits the same batch
// sequence as AppSource over the same trace, including TBStart flags and
// large-TB chunking.
func TestBinaryStreamBatchShape(t *testing.T) {
	app := sampleApp()
	big := TB{ID: 9}
	for i := 0; i < maxBatchRequests+10; i++ {
		big.Requests = append(big.Requests, Request{Addr: uint64(i) * 64})
	}
	app.Kernels[1].TBs = append(app.Kernels[1].TBs, big)

	want := describeBatches(t, AppSource(app).Stream())
	got := describeBatches(t, NewBinaryStream(bytes.NewReader(encodeBinary(t, app))))
	if !reflect.DeepEqual(want, got) {
		t.Errorf("batch shape:\n got %+v\nwant %+v", got, want)
	}
}

type batchShape struct {
	Kernel int
	TB     int
	Start  bool
	Header bool
	Reqs   int
}

func describeBatches(t *testing.T, s Stream) []batchShape {
	t.Helper()
	var got []batchShape
	for {
		b, err := s.Next()
		if err == io.EOF {
			return got
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, batchShape{b.KernelIndex, b.TBID, b.TBStart, b.Kernel != nil, len(b.Requests)})
	}
}

// TestBinaryEmptyTB: empty TBs are representable in binary (unlike CSV)
// and survive decode → re-encode.
func TestBinaryEmptyTB(t *testing.T) {
	app := &App{Kernels: []Kernel{{Name: "k", WarpsPerTB: 1, TBs: []TB{
		{ID: 0},
		{ID: 3, Requests: []Request{{Addr: 0x40}}},
		{ID: 5},
	}}}}
	data := encodeBinary(t, app)
	back, err := ReadBinary(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(app.Kernels, back.Kernels) {
		t.Errorf("empty TBs did not roundtrip:\n%+v\nvs\n%+v", app.Kernels, back.Kernels)
	}
	if again := encodeBinary(t, back); !bytes.Equal(data, again) {
		t.Error("re-encode is not bit-identical")
	}
}

// TestWriteBinaryStreamMatchesWriteBinary: the streaming encoder and the
// materialized encoder produce the same bytes, whatever the batch
// chunking of the input stream.
func TestWriteBinaryStreamMatchesWriteBinary(t *testing.T) {
	app := sampleApp()
	big := TB{ID: 7}
	for i := 0; i < maxBatchRequests*2+3; i++ {
		big.Requests = append(big.Requests, Request{Addr: uint64(i), Kind: Kind(i % 2), Warp: int32(i % 5)})
	}
	app.Kernels[0].TBs = append(app.Kernels[0].TBs, big)

	want := encodeBinary(t, app)
	var buf bytes.Buffer
	if err := WriteBinaryStream(&buf, AppSource(app).Stream()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, buf.Bytes()) {
		t.Error("WriteBinaryStream differs from WriteBinary")
	}
}

// corruptBinaryCases is the malformed binary corpus: structural damage
// the decoders must reject cleanly (never panic, never yield a partial
// trace as valid). Built by mutating a valid encoding of sampleApp.
// Shared with the fuzz seeds (FuzzTraceFormatParity).
func corruptBinaryCases(t testing.TB) map[string][]byte {
	base := encodeBinary(t, sampleApp())
	mut := func(f func(b []byte) []byte) []byte {
		b := append([]byte(nil), base...)
		return f(b)
	}
	cases := map[string][]byte{
		"empty":                 {},
		"short header":          base[:10],
		"bad magic":             mut(func(b []byte) []byte { b[0] = 'X'; return b }),
		"bad version":           mut(func(b []byte) []byte { b[4] = 99; return b }),
		"nonzero header pad":    mut(func(b []byte) []byte { b[9] = 1; return b }),
		"header only":           base[:16],
		"truncated mid-section": base[:len(base)-sha256.Size-20],
		"truncated checksum":    base[:len(base)-10],
		"flipped record byte":   mut(func(b []byte) []byte { b[len(b)-sha256.Size-24] ^= 0xff; return b }),
		"flipped checksum":      mut(func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b }),
		"trailing garbage":      append(append([]byte(nil), base...), 0xde, 0xad),
	}
	// Hand-built structural violations (header + crafted sections).
	sec := func(parts ...[]byte) []byte {
		out := append([]byte(nil), binaryHeader[:]...)
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	u64 := func(v uint64) []byte {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		return b[:]
	}
	cases["no kernels"] = sec(u64(secEnd), make([]byte, sha256.Size))
	cases["tb before kernel"] = sec(u64(secTB), u64(0), u64(0))
	cases["unknown section tag"] = sec(u64(77))
	cases["zero warps"] = sec(u64(secKernel), u64(0), u64(0), u64(0))
	cases["negative gap"] = sec(u64(secKernel), u64(1), u64(1<<63), u64(0))
	cases["huge name length"] = sec(u64(secKernel), u64(1), u64(0), u64(maxKernelName+1))
	cases["nonzero name pad"] = sec(u64(secKernel), u64(1), u64(0), u64(1), []byte{'k', 0, 0, 0, 0, 0, 0, 1})
	kernel := sec(u64(secKernel), u64(1), u64(0), u64(0))
	tb := func(id, count uint64, recs ...byte) []byte {
		return append(append(append(u64(secTB), u64(id)...), u64(count)...), recs...)
	}
	rec := func(addr uint64, kind byte, pad [3]byte, warp uint32) []byte {
		var b [recordBytes]byte
		binary.LittleEndian.PutUint64(b[0:8], addr)
		b[8] = kind
		copy(b[9:12], pad[:])
		binary.LittleEndian.PutUint32(b[12:16], warp)
		return b[:]
	}
	cat := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	cases["descending tb ids"] = cat(kernel, tb(5, 0), tb(2, 0))
	cases["repeated tb id"] = cat(kernel, tb(1, 0), tb(1, 0))
	cases["bad kind byte"] = cat(kernel, tb(0, 1, rec(0x40, 2, [3]byte{}, 0)...))
	cases["nonzero record pad"] = cat(kernel, tb(0, 1, rec(0x40, 0, [3]byte{0, 1, 0}, 0)...))
	cases["negative warp"] = cat(kernel, tb(0, 1, rec(0x40, 0, [3]byte{}, 1<<31)...))
	cases["count overflows file"] = cat(kernel, tb(0, 1<<61))
	return cases
}

// TestBinaryDecodersRejectCorruption feeds the corrupt corpus to all
// three binary decode paths — streaming, materialized, mmap — and
// requires each to reject, the mapped file with the streaming
// decoder's exact error text.
func TestBinaryDecodersRejectCorruption(t *testing.T) {
	for name, data := range corruptBinaryCases(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
				t.Error("materialized decoder accepted corrupt input")
			}
			bs := NewBinaryStream(bytes.NewReader(data))
			var streamErr error
			for {
				_, err := bs.Next()
				if err != nil {
					if err != io.EOF {
						streamErr = err
					}
					break
				}
			}
			if streamErr == nil {
				t.Error("streaming decoder accepted corrupt input")
			} else if !strings.HasPrefix(streamErr.Error(), "trace binary: ") {
				t.Errorf("unprefixed error: %v", streamErr)
			}
			// Errors are sticky.
			if _, err := bs.Next(); err != streamErr {
				t.Errorf("error not sticky: %v then %v", streamErr, err)
			}
			if src, err := OpenMmap(writeTempTrace(t, data)); err == nil {
				src.Close()
				t.Error("OpenMmap accepted corrupt input")
			} else if streamErr != nil && err.Error() != streamErr.Error() {
				t.Errorf("OpenMmap error %q != streaming error %q", err, streamErr)
			}
		})
	}
}

func TestBinaryUnsupportedVersionError(t *testing.T) {
	// The version error text is part of the format-stability contract
	// (doc.go): future readers must keep telling old tools apart.
	data := encodeBinary(t, sampleApp())
	data[4] = 2
	_, err := ReadBinary(bytes.NewReader(data))
	want := "trace binary: unsupported version 2 (want 1)"
	if err == nil || err.Error() != want {
		t.Errorf("err = %v, want %q", err, want)
	}
	if src, err := OpenMmap(writeTempTrace(t, data)); err == nil {
		src.Close()
		t.Errorf("OpenMmap accepted version 2, want %q", want)
	} else if err.Error() != want {
		t.Errorf("OpenMmap err = %v, want %q", err, want)
	}
}

func TestMmapSourceMatchesBinaryStream(t *testing.T) {
	app := sampleApp()
	// Exercise chunking and empty TBs through the mmap path too.
	app.Kernels[0].TBs = append(app.Kernels[0].TBs, TB{ID: 100})
	big := TB{ID: 101}
	for i := 0; i < maxBatchRequests+5; i++ {
		big.Requests = append(big.Requests, Request{Addr: uint64(i) * 32, Warp: int32(i % 3)})
	}
	app.Kernels[0].TBs = append(app.Kernels[0].TBs, big)
	data := encodeBinary(t, app)

	src, err := OpenMmap(writeTempTrace(t, data))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	bs := NewBinaryStream(bytes.NewReader(data))
	want := drainApp(t, bs, bs.Info())
	if src.SHA256() != bs.SHA256() {
		t.Errorf("mmap hash %s != stream hash %s", src.SHA256(), bs.SHA256())
	}
	if src.Requests() != want.Requests() {
		t.Errorf("Requests() = %d, want %d", src.Requests(), want.Requests())
	}
	if src.Bytes() != len(data) {
		t.Errorf("Bytes() = %d, want %d", src.Bytes(), len(data))
	}
	// Restartable: two passes, plus batch-shape equality with the
	// streaming decoder.
	for pass := 0; pass < 2; pass++ {
		got := drainApp(t, src.Stream(), src.Info())
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("pass %d: mmap decode differs from streaming decode", pass)
		}
	}
	wantShape := describeBatches(t, NewBinaryStream(bytes.NewReader(data)))
	gotShape := describeBatches(t, src.Stream())
	if !reflect.DeepEqual(wantShape, gotShape) {
		t.Errorf("batch shape:\n got %+v\nwant %+v", gotShape, wantShape)
	}
	// A replay's batches hash to the digest verified at open, while the
	// replay itself, like an unhashed CSV stream, hashes nothing.
	if sum, err := CanonicalHash(src); err != nil || sum != src.SHA256() {
		t.Errorf("replay hashes to %s (err %v), want %s", sum, err, src.SHA256())
	}
	replay := src.Stream().(*BinaryStream)
	drainApp(t, replay, replay.Info())
	if replay.SHA256() == src.SHA256() {
		t.Error("a replay must not claim the content digest")
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	if err := src.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

func TestOpenFileSniffsFormat(t *testing.T) {
	app := sampleApp()
	dir := t.TempDir()

	binPath := filepath.Join(dir, "t.vtrc")
	var bin bytes.Buffer
	if err := WriteBinary(&bin, app); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(binPath, bin.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	csvPath := filepath.Join(dir, "t.csv")
	var csv bytes.Buffer
	if err := WriteCSV(&csv, app); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(csvPath, csv.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	src, release, err := OpenFile(binPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := src.(*MmapSource); !ok {
		t.Errorf("binary file opened as %T, want *MmapSource", src)
	}
	binApp := drainApp(t, src.Stream(), src.Info())
	release()

	src, release, err = OpenFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	cs, ok := src.(*CSVStream)
	if !ok {
		t.Fatalf("csv file opened as %T, want *CSVStream", src)
	}
	csvApp := drainApp(t, cs, cs.Info())
	release()

	if !reflect.DeepEqual(binApp, csvApp) {
		t.Error("binary and CSV decodes of the same trace differ")
	}
	if _, _, err := OpenFile(filepath.Join(dir, "missing")); err == nil {
		t.Error("OpenFile accepted a missing file")
	}
}

// TestCanonicalHashBoundaryInvariant: the canonical digest depends only
// on the record stream, not on how batches chunk it or which container
// carried it.
func TestCanonicalHashBoundaryInvariant(t *testing.T) {
	app := sampleApp()
	fromApp, err := CanonicalHash(AppSource(app))
	if err != nil {
		t.Fatal(err)
	}

	var csv bytes.Buffer
	if err := WriteCSV(&csv, app); err != nil {
		t.Fatal(err)
	}
	cs := NewCSVStream(bytes.NewReader(csv.Bytes()))
	drainApp(t, cs, cs.Info())

	data := encodeBinary(t, app)
	bs := NewBinaryStream(bytes.NewReader(data))
	drainApp(t, bs, bs.Info())

	if cs.SHA256() != fromApp || bs.SHA256() != fromApp {
		t.Errorf("hashes diverge: app %s, csv %s, binary %s", fromApp, cs.SHA256(), bs.SHA256())
	}
	// ... and the end-section checksum is that same digest.
	stored := data[len(data)-sha256.Size:]
	if got := string(stored); got == "" {
		t.Fatal("unreachable")
	}
	var want [sha256.Size]byte
	c := newCanonFold()
	for ki := range app.Kernels {
		k := &app.Kernels[ki]
		c.kernel(&KernelInfo{Name: k.Name, WarpsPerTB: k.WarpsPerTB, ComputeGapCycles: k.ComputeGapCycles})
		for ti := range k.TBs {
			c.tbStart(k.TBs[ti].ID)
			c.requests(k.TBs[ti].Requests)
		}
	}
	want = c.sum()
	if !bytes.Equal(stored, want[:]) {
		t.Error("end-section checksum is not the canonical digest")
	}
}
