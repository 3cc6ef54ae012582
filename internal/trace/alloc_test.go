package trace

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestIngestAllocs pins the allocation ceilings of the three ingest
// paths over benchApp, per full pass. The CSV decoder allocates its
// scanner buffer, batch, hasher and kernel names, and grows its hash
// scratch (27 on a linux/amd64 host), none of it per row. Its bytes per
// pass are pinned too (about 166 KB on that host): the scanner buffer
// starts at 64 KiB and grows only for long lines. The binary reader
// decoder allocates fixed-size buffers, its hasher and kernel names
// (14); an MmapSource pass, a replay, allocates only its decoder
// struct: batches alias the mapping, kernel headers were saved at open
// and a replay builds no hasher. A leap past any ceiling means a buffer
// stopped being reused, a stack buffer started escaping, or a parser
// started allocating per row.
func TestIngestAllocs(t *testing.T) {
	var csvBuf bytes.Buffer
	if err := WriteCSV(&csvBuf, benchApp()); err != nil {
		t.Fatal(err)
	}
	csvData := csvBuf.Bytes()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, benchApp()); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	path := filepath.Join(t.TempDir(), "bench.vtrc")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := OpenMmap(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	rows := benchApp().Requests()

	drain := func(s Stream) {
		n := 0
		for {
			b, err := s.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			n += len(b.Requests)
		}
		if n != rows {
			t.Fatalf("decoded %d rows, want %d", n, rows)
		}
	}
	r := bytes.NewReader(data)
	cr := bytes.NewReader(csvData)
	cases := []struct {
		name         string
		ceiling      float64
		bytesCeiling uint64 // 0: not pinned
		pass         func()
	}{
		{"CSVStream", 32, 256 << 10, func() {
			cr.Reset(csvData)
			drain(NewCSVStream(cr))
		}},
		{"BinaryStream", 32, 0, func() {
			r.Reset(data)
			drain(NewBinaryStream(r))
		}},
		{"MmapSource", 1, 0, func() { drain(src.Stream()) }},
	}
	for _, tc := range cases {
		if got := testing.AllocsPerRun(10, tc.pass); got > tc.ceiling {
			t.Errorf("%s allocates %v per pass, ceiling %v", tc.name, got, tc.ceiling)
		} else {
			t.Logf("%s: %v allocs per pass (ceiling %v)", tc.name, got, tc.ceiling)
		}
		if tc.bytesCeiling == 0 {
			continue
		}
		if got := bytesPerRun(10, tc.pass); got > tc.bytesCeiling {
			t.Errorf("%s allocates %d bytes per pass, ceiling %d", tc.name, got, tc.bytesCeiling)
		} else {
			t.Logf("%s: %d bytes per pass (ceiling %d)", tc.name, got, tc.bytesCeiling)
		}
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes one call
// of f allocates, averaged over runs calls after a warm-up call.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}
