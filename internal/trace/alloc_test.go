package trace

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestIngestAllocs pins the allocation ceilings of both binary ingest
// paths over benchApp, per full pass. The reader decoder allocates
// fixed-size buffers, its hasher and kernel names (14 on a linux/amd64
// host); an MmapSource pass, a replay, allocates only its decoder
// struct: batches alias the mapping, kernel headers were saved at open
// and a replay builds no hasher. A leap past either ceiling means a
// buffer stopped being reused or a stack buffer started escaping.
func TestIngestAllocs(t *testing.T) {
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
	cases := []struct {
		name    string
		ceiling float64
		pass    func()
	}{
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
