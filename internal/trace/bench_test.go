package trace

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// benchApp is a profiling-shaped trace: a few kernels, many TBs, runs
// of strided addresses — big enough that per-row decode cost dominates
// fixed overhead.
func benchApp() *App {
	app := &App{Name: "bench", Abbr: "BN", InsnPerAccess: 1}
	for k := 0; k < 3; k++ {
		kernel := Kernel{Name: "kernel", WarpsPerTB: 8, ComputeGapCycles: 10}
		for tb := 0; tb < 40; tb++ {
			t := TB{ID: tb}
			for i := 0; i < 512; i++ {
				t.Requests = append(t.Requests, Request{
					Addr: uint64(tb)<<20 | uint64(i)*64,
					Kind: Kind(i & 1),
					Warp: int32(i & 7),
				})
			}
			kernel.TBs = append(kernel.TBs, t)
		}
		app.Kernels = append(app.Kernels, kernel)
	}
	return app
}

// drainStream pulls a stream dry, returning the request count so the
// decode work cannot be optimized away.
func drainStream(b *testing.B, s Stream) int {
	b.Helper()
	n := 0
	for {
		batch, err := s.Next()
		if err == io.EOF {
			return n
		}
		if err != nil {
			b.Fatal(err)
		}
		n += len(batch.Requests)
	}
}

// BenchmarkCSVStream is the baseline the binary container is measured
// against: tokenize + strconv per field, per row.
func BenchmarkCSVStream(b *testing.B) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, benchApp()); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	rows := benchApp().Requests()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := drainStream(b, NewCSVStream(bytes.NewReader(data))); got != rows {
			b.Fatalf("decoded %d rows, want %d", got, rows)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
}

// BenchmarkBinaryStream decodes the same trace from the VTRC container:
// fixed-width records, no tokenizing, hash folded over raw bytes.
func BenchmarkBinaryStream(b *testing.B) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, benchApp()); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	rows := benchApp().Requests()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := drainStream(b, NewBinaryStream(bytes.NewReader(data))); got != rows {
			b.Fatalf("decoded %d rows, want %d", got, rows)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
}

// BenchmarkMmapSource streams batches out of an open mapping: the
// steady-state per-batch cost after the one-time open/validate. This is
// the zero-allocation path TestIngestAllocs pins (batches alias the
// mapping).
func BenchmarkMmapSource(b *testing.B) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, benchApp()); err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "bench.vtrc")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		b.Fatal(err)
	}
	src, err := OpenMmap(path)
	if err != nil {
		b.Fatal(err)
	}
	defer src.Close()
	rows := src.Requests()
	b.SetBytes(int64(src.Bytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := drainStream(b, src.Stream()); got != rows {
			b.Fatalf("decoded %d rows, want %d", got, rows)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
}
