package trace

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestIngestAllocs pins the allocation ceilings of the three ingest
// paths over benchApp, per full pass. The CSV decoder allocates its
// scanner buffer, batch, hasher and kernel names, and grows its hash
// scratch (27 on a linux/amd64 host), none of it per row. The binary
// reader decoder allocates fixed-size buffers, its hasher and kernel
// names (14); an MmapSource pass, a replay, allocates only its decoder
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
		name    string
		ceiling float64
		pass    func()
	}{
		{"CSVStream", 32, func() {
			cr.Reset(csvData)
			drain(NewCSVStream(cr))
		}},
		{"BinaryStream", 32, func() {
			r.Reset(data)
			drain(NewBinaryStream(r))
		}},
		{"MmapSource", 1, func() { drain(src.Stream()) }},
	}
	for _, tc := range cases {
		if got := testing.AllocsPerRun(10, tc.pass); got > tc.ceiling {
			t.Errorf("%s allocates %v per pass, ceiling %v", tc.name, got, tc.ceiling)
		} else {
			t.Logf("%s: %v allocs per pass (ceiling %v)", tc.name, got, tc.ceiling)
		}
	}
}
