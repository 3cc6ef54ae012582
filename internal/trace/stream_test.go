package trace

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
)

// drainApp fully coalesces/streams src into an App, failing the test on
// stream errors.
func drainApp(t *testing.T, s Stream, info SourceInfo) *App {
	t.Helper()
	app, err := CollectStream(s, info)
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	return app
}

func TestAppSourceRoundTrip(t *testing.T) {
	app := sampleApp()
	src := AppSource(app)
	if src.Info().Name != "s" || src.Info().Abbr != "S" || src.Info().InsnPerAccess != 3 {
		t.Errorf("info = %+v", src.Info())
	}
	back := drainApp(t, src.Stream(), src.Info())
	if !reflect.DeepEqual(app, back) {
		t.Errorf("round trip differs:\n%+v\nvs\n%+v", app, back)
	}
	// Sources restart: a second pass yields the same trace.
	again := drainApp(t, src.Stream(), src.Info())
	if !reflect.DeepEqual(app, again) {
		t.Error("second pass differs from first")
	}
}

func TestAppStreamBatchShape(t *testing.T) {
	app := sampleApp()
	st := AppSource(app).Stream()
	var headers, tbStarts int
	lastKernel := -1
	for {
		b, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if b.Kernel != nil {
			headers++
			if b.TBID != -1 || len(b.Requests) != 0 {
				t.Errorf("header batch carries requests: %+v", b)
			}
			if b.KernelIndex != lastKernel+1 {
				t.Errorf("kernel index %d after %d", b.KernelIndex, lastKernel)
			}
			lastKernel = b.KernelIndex
			continue
		}
		if b.TBStart {
			tbStarts++
		}
		if b.KernelIndex != lastKernel {
			t.Errorf("request batch kernel %d, header said %d", b.KernelIndex, lastKernel)
		}
	}
	if headers != 2 || tbStarts != 3 {
		t.Errorf("headers=%d tbStarts=%d, want 2 and 3", headers, tbStarts)
	}
}

// TestAppStreamSplitsLargeTBs checks that TBs above the batch cap are
// chunked with TBStart only on the first chunk.
func TestAppStreamSplitsLargeTBs(t *testing.T) {
	reqs := make([]Request, maxBatchRequests+10)
	for i := range reqs {
		reqs[i] = Request{Addr: uint64(i) * 64}
	}
	app := &App{Kernels: []Kernel{{Name: "k", WarpsPerTB: 1, TBs: []TB{{ID: 0, Requests: reqs}}}}}
	st := AppSource(app).Stream()
	var starts, chunks, total int
	for {
		b, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if b.Kernel != nil {
			continue
		}
		chunks++
		total += len(b.Requests)
		if b.TBStart {
			starts++
		}
	}
	if chunks != 2 || starts != 1 || total != len(reqs) {
		t.Errorf("chunks=%d starts=%d total=%d", chunks, starts, total)
	}
	back := drainApp(t, AppSource(app).Stream(), SourceInfo{})
	if !reflect.DeepEqual(app.Kernels, back.Kernels) {
		t.Error("chunked TB did not reassemble")
	}
}

// TestCoalesceStreamMatchesCoalesceApp is the streaming-coalescer golden
// test: the streamed transactions must equal CoalesceApp's exactly, even
// when TBs are split across batches.
func TestCoalesceStreamMatchesCoalesceApp(t *testing.T) {
	app := sampleApp()
	// Add a TB with warp runs, duplicate lines and a run that would span
	// chunk boundaries.
	big := TB{ID: 9}
	for w := int32(0); w < 3; w++ {
		for i := 0; i < 200; i++ {
			big.Requests = append(big.Requests, Request{Addr: uint64(i%5) * 32, Kind: Read, Warp: w})
		}
		big.Requests = append(big.Requests, Request{Addr: 1 << 20, Kind: Write, Warp: w})
	}
	app.Kernels[0].TBs = append(app.Kernels[0].TBs, big)

	for _, lineBytes := range []int{0, 64, 128, 512} {
		want := CoalesceApp(app, lineBytes)
		got := drainApp(t, CoalesceStream(AppSource(app).Stream(), lineBytes), AppSource(app).Info())
		if !reflect.DeepEqual(want.Kernels, got.Kernels) {
			t.Errorf("lineBytes=%d: streamed coalesce differs from CoalesceApp", lineBytes)
		}
	}
}

func TestCSVStreamMatchesReadCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, sampleApp()); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	collected := NewCSVStream(bytes.NewReader(data))
	want, err := CollectStream(collected, collected.Info())
	if err != nil {
		t.Fatal(err)
	}
	wantSum := collected.SHA256()
	cs := NewCSVStream(bytes.NewReader(data))
	got := drainApp(t, cs, cs.Info())
	if !reflect.DeepEqual(want, got) {
		t.Errorf("streamed decode differs:\n%+v\nvs\n%+v", want, got)
	}
	if cs.SHA256() != wantSum {
		t.Errorf("incremental hash %s != collected hash %s", cs.SHA256(), wantSum)
	}
	// The unhashed variant decodes identically, minus the digest.
	cu := NewCSVStreamUnhashed(bytes.NewReader(data))
	unhashed := drainApp(t, cu, cu.Info())
	if !reflect.DeepEqual(want, unhashed) {
		t.Error("unhashed decode differs from hashed decode")
	}
	if cu.SHA256() == wantSum {
		t.Error("unhashed stream must not claim the content digest")
	}
}

// malformedCSVCases is the malformed-input parity corpus — truncated
// rows, non-numeric addresses, bad kind tokens, structural violations.
// Shared between TestCSVDecodersRejectIdentically and the fuzz seeds
// (FuzzCSVStreamParity).
var malformedCSVCases = []struct {
	name, in string
}{
	{"empty", ""},
	{"comments only", "# nothing\n\n"},
	{"request before kernel", "R,0,0,R,1000\n"},
	{"truncated K", "K,k,1\n"},
	{"overlong K", "K,k,1,1,9\n"},
	{"zero warps", "K,k,0,10\nR,0,0,R,10\n"},
	{"non-numeric warps", "K,k,two,10\n"},
	{"negative gap", "K,k,1,-5\n"},
	{"non-numeric gap", "K,k,1,x\n"},
	{"truncated R", "K,k,1,1\nR,0,0,R\n"},
	{"overlong R", "K,k,1,1\nR,0,0,R,10,extra\n"},
	{"non-numeric tb id", "K,k,1,1\nR,abc,0,R,10\n"},
	{"overflowing tb id", "K,k,1,1\nR,18446744073709551616,0,R,10\n"},
	{"overflowing warp", "K,k,1,1\nR,0,99999999999999999999,R,10\n"},
	{"int32-wrapping warp", "K,k,1,1\nR,0,3000000000,R,10\n"}, // would wrap negative in Request.Warp
	{"non-numeric warp", "K,k,1,1\nR,0,w,R,10\n"},
	{"negative warp", "K,k,1,1\nR,0,-1,R,10\n"},
	{"bad kind token", "K,k,1,1\nR,0,0,X,10\n"},
	{"lowercase kind", "K,k,1,1\nR,0,0,r,10\n"},
	{"non-hex address", "K,k,1,1\nR,0,0,R,zz\n"},
	{"empty address", "K,k,1,1\nR,0,0,R,\n"},
	{"0x-prefixed address", "K,k,1,1\nR,0,0,R,0x10\n"},
	{"overflow address", "K,k,1,1\nR,0,0,R,1ffffffffffffffff\n"},
	{"descending TB ids", "K,k,1,1\nR,5,0,R,0\nR,2,0,R,0\n"},
	{"repeated TB id", "K,k,1,1\nR,1,0,R,0\nR,2,0,R,0\nR,1,0,R,4\n"},
	{"unknown record", "K,k,1,1\nQ,1,2\n"},
	{"empty record type", "K,k,1,1\n,1,2\n"},
}

// acceptCSVCases are valid-but-unusual inputs both decoders must accept
// identically; also fuzz seeds.
var acceptCSVCases = []string{
	"K,k,1,1\nR,0,0,R,10\n",
	"K, k with spaces ,4,0\nR,0,3,W,FFff\n",
	"K,k,1,1\nK,k2,2,2\nR,7,1,R,0\n",          // empty first kernel
	"K,k,+2,+3\nR,+1,+0,R,abc\n",              // explicit plus signs (Atoi accepts)
	"K,k,1,1\nR,9223372036854775807,0,R,10\n", // max-int64 TB id parses, no wrap
	"  K,k,1,1  \n\n# c\n R,0,0,R,40 \n",
}

// TestCSVDecodersRejectIdentically feeds the malformed corpus to both
// the materialized and the streaming decoder and requires the exact
// same rejection (same error text) from both.
func TestCSVDecodersRejectIdentically(t *testing.T) {
	for _, tc := range malformedCSVCases {
		t.Run(tc.name, func(t *testing.T) {
			_, matErr := ReadCSV(strings.NewReader(tc.in))
			if matErr == nil {
				t.Fatalf("materialized decoder accepted %q", tc.in)
			}
			cs := NewCSVStream(strings.NewReader(tc.in))
			var streamErr error
			for {
				_, err := cs.Next()
				if err != nil {
					if err != io.EOF {
						streamErr = err
					}
					break
				}
			}
			if streamErr == nil {
				t.Fatalf("streaming decoder accepted %q", tc.in)
			}
			if matErr.Error() != streamErr.Error() {
				t.Errorf("decoders disagree:\n  materialized: %v\n  streaming:    %v", matErr, streamErr)
			}
		})
	}
}

// TestCSVDecodersAcceptIdentically checks that valid-but-unusual inputs
// decode to the same trace through both decoders.
func TestCSVDecodersAcceptIdentically(t *testing.T) {
	for _, in := range acceptCSVCases {
		want, err := ReadCSV(strings.NewReader(in))
		if err != nil {
			t.Fatalf("materialized decoder rejected %q: %v", in, err)
		}
		cs := NewCSVStream(strings.NewReader(in))
		got, err := CollectStream(cs, cs.Info())
		if err != nil {
			t.Fatalf("streaming decoder rejected %q: %v", in, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("decoders disagree on %q:\n%+v\nvs\n%+v", in, want, got)
		}
	}
}

// TestCSVStreamErrorSticky: after a decode error, Next keeps returning
// the same error instead of resuming mid-trace.
func TestCSVStreamErrorSticky(t *testing.T) {
	cs := NewCSVStream(strings.NewReader("K,k,1,1\nR,0,0,X,10\nR,1,0,R,10\n"))
	var first error
	for {
		_, err := cs.Next()
		if err != nil {
			first = err
			break
		}
	}
	if first == nil || first == io.EOF {
		t.Fatalf("expected decode error, got %v", first)
	}
	if _, err := cs.Next(); err != first {
		t.Errorf("error not sticky: %v then %v", first, err)
	}
}

// TestCSVStreamBatchTBBoundaries: batches never mix TBs and flag starts.
func TestCSVStreamBatchTBBoundaries(t *testing.T) {
	in := "K,k,2,0\n" +
		"R,0,0,R,10\nR,0,1,R,20\n" +
		"R,3,0,W,30\n" +
		"K,k2,1,0\n" +
		"R,0,0,R,40\n"
	cs := NewCSVStream(strings.NewReader(in))
	type rec struct {
		kernel int
		tb     int
		start  bool
		header bool
		reqs   int
	}
	var got []rec
	for {
		b, err := cs.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, rec{b.KernelIndex, b.TBID, b.TBStart, b.Kernel != nil, len(b.Requests)})
	}
	want := []rec{
		{0, -1, false, true, 0},
		{0, 0, true, false, 2},
		{0, 3, true, false, 1},
		{1, -1, false, true, 0},
		{1, 0, true, false, 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("batch shape:\n got %+v\nwant %+v", got, want)
	}
}

// TestCollectStreamHeaderless: streams that violate the header-first
// convention get an implicit kernel, matching the streaming profiler's
// tolerance, instead of silently dropping requests.
func TestCollectStreamHeaderless(t *testing.T) {
	st := &sliceStream{batches: []Batch{
		{TBID: 0, TBStart: true, Requests: []Request{{Addr: 0x40}}},
		{TBID: 1, TBStart: true, Requests: []Request{{Addr: 0x80}, {Addr: 0xc0}}},
	}}
	app, err := CollectStream(st, SourceInfo{Name: "headerless"})
	if err != nil {
		t.Fatal(err)
	}
	if len(app.Kernels) != 1 || len(app.Kernels[0].TBs) != 2 || app.Requests() != 3 {
		t.Errorf("headerless collect = %d kernels, %d requests", len(app.Kernels), app.Requests())
	}
}

type sliceStream struct {
	batches []Batch
	i       int
}

func (s *sliceStream) Next() (*Batch, error) {
	if s.i >= len(s.batches) {
		return nil, io.EOF
	}
	b := &s.batches[s.i]
	s.i++
	return b, nil
}

// TestCSVStreamLongLines: the decoder's line buffer starts small and
// grows to 1 MiB, so a kernel line of 1 MiB less one byte (its newline
// fills the buffer) still decodes, and one byte more fails with
// bufio.ErrTooLong.
func TestCSVStreamLongLines(t *testing.T) {
	const limit = 1 << 20
	for _, tc := range []struct {
		lineLen int
		err     error
	}{
		{limit - 1, nil},
		{limit, bufio.ErrTooLong},
	} {
		name := strings.Repeat("k", tc.lineLen-len("K,,4,0"))
		in := "K," + name + ",4,0\nR,0,0,R,80\n"
		st := NewCSVStream(strings.NewReader(in))
		var hdr string
		var err error
		for err == nil {
			var b *Batch
			if b, err = st.Next(); err == nil && b.Kernel != nil {
				hdr = b.Kernel.Name
			}
		}
		if tc.err == nil {
			if err != io.EOF || hdr != name {
				t.Errorf("a %d-byte kernel line: err %v, name of %d bytes, want EOF after the %d-byte name", tc.lineLen, err, len(hdr), len(name))
			}
		} else if !errors.Is(err, tc.err) {
			t.Errorf("a %d-byte kernel line: err %v, want %v", tc.lineLen, err, tc.err)
		}
	}
}
