package entropy

import (
	"fmt"
	"io"
	"testing"

	"valleymap/internal/trace"
	"valleymap/internal/workload"
)

// materializedProfile is the golden reference: the original
// materialize-everything pipeline (CoalesceApp → AppProfile).
func materializedProfile(app *trace.App, lineBytes, window, bits int, f Transform) Profile {
	a := app
	if lineBytes > 0 {
		a = trace.CoalesceApp(app, lineBytes)
	}
	return AppProfile(a, window, bits, f)
}

// streamedProfile runs the same analysis through the streaming pipeline
// (AppSource → CoalesceStream → ProfileStream).
func streamedProfile(t *testing.T, app *trace.App, lineBytes, window, bits int, bf func([]uint64)) Profile {
	t.Helper()
	var st trace.Stream = trace.AppSource(app).Stream()
	if lineBytes > 0 {
		st = trace.CoalesceStream(st, lineBytes)
	}
	p, err := ProfileStream(st, StreamOptions{
		Window: window, Bits: bits, BatchTransform: bf,
	})
	if err != nil {
		t.Fatalf("ProfileStream: %v", err)
	}
	return p
}

// requireIdentical asserts bit-identical profiles (exact float equality,
// not approximate: the streaming path must perform the same arithmetic).
func requireIdentical(t *testing.T, name string, want, got Profile) {
	t.Helper()
	if want.Requests != got.Requests {
		t.Fatalf("%s: requests %d != %d", name, got.Requests, want.Requests)
	}
	if len(want.PerBit) != len(got.PerBit) {
		t.Fatalf("%s: bits %d != %d", name, len(got.PerBit), len(want.PerBit))
	}
	for b := range want.PerBit {
		if want.PerBit[b] != got.PerBit[b] {
			t.Fatalf("%s: bit %d: streamed %.17g != materialized %.17g",
				name, b, got.PerBit[b], want.PerBit[b])
		}
	}
}

// TestStreamProfileGoldenAllWorkloads is the golden-equivalence test of
// the streaming profiler: for every built-in workload, the streaming
// profile must be bit-identical to the materialized one.
func TestStreamProfileGoldenAllWorkloads(t *testing.T) {
	const window, bits, lineBytes = 12, 30, 128
	for _, spec := range workload.All() {
		app := spec.Build(workload.Tiny)
		want := materializedProfile(app, lineBytes, window, bits, nil)
		requireIdentical(t, spec.Abbr,
			want, streamedProfile(t, app, lineBytes, window, bits, nil))
	}
}

// TestStreamProfileGoldenTransform checks equivalence through the batch
// address-transform hook against AppProfile's per-address transform.
func TestStreamProfileGoldenTransform(t *testing.T) {
	spec, _ := workload.ByAbbr("MT")
	app := spec.Build(workload.Tiny)
	xform := func(a uint64) uint64 { return a ^ (a >> 7 & 0x3f << 8) }
	batch := func(addrs []uint64) {
		for i, a := range addrs {
			addrs[i] = xform(a)
		}
	}
	want := materializedProfile(app, 128, 12, 30, xform)
	requireIdentical(t, "MT/batch-transform",
		want, streamedProfile(t, app, 128, 12, 30, batch))
}

// TestStreamProfileGoldenParameterSweep varies window, bits, line size
// and coalescing off, including windows larger than the TB count (the
// clamped single-window path). Windows 2 and 13 walk the ring across
// its wrap at other widths than the default 12. The wide cases profile
// 33, 40 and 64 bits after a transform that XORs shifted copies of the
// address into bits 32–63, so the upper byte lanes count one-bits.
func TestStreamProfileGoldenParameterSweep(t *testing.T) {
	spec, _ := workload.ByAbbr("SP")
	app := spec.Build(workload.Tiny)
	widen := func(a uint64) uint64 { return a ^ a<<25 ^ a<<34 }
	cases := []struct {
		name                    string
		lineBytes, window, bits int
		wide                    bool
	}{
		{"w1", 128, 1, 30, false},
		{"w2", 128, 2, 30, false},
		{"w4-b16", 128, 4, 16, false},
		{"w13", 128, 13, 30, false},
		{"line512", 512, 12, 30, false},
		{"uncoalesced", 0, 12, 30, false},
		{"window-larger-than-kernel", 128, 100000, 30, false},
		{"b33", 128, 12, 33, true},
		{"b40-w13", 128, 13, 40, true},
		{"b64", 128, 12, 64, true},
		{"b64-uncoalesced-w2", 0, 2, 64, true},
	}
	for _, tc := range cases {
		var f Transform
		var bf func([]uint64)
		if tc.wide {
			f = widen
			bf = func(addrs []uint64) {
				for i, a := range addrs {
					addrs[i] = widen(a)
				}
			}
		}
		want := materializedProfile(app, tc.lineBytes, tc.window, tc.bits, f)
		if tc.wide && want.Mean(upperBits(tc.bits)) == 0 {
			t.Fatalf("SP/%s: bits 32 and up have no entropy, so the upper lanes are not exercised", tc.name)
		}
		requireIdentical(t, "SP/"+tc.name,
			want, streamedProfile(t, app, tc.lineBytes, tc.window, tc.bits, bf))
	}
}

// upperBits lists the bit positions from 32 up to bits.
func upperBits(bits int) []int {
	var out []int
	for b := 32; b < bits; b++ {
		out = append(out, b)
	}
	return out
}

// TestAccumulatorBatchSplitInvariance: splitting a TB across many small
// batches must not change the profile.
func TestAccumulatorBatchSplitInvariance(t *testing.T) {
	app := &trace.App{Kernels: []trace.Kernel{{
		Name: "k", WarpsPerTB: 2,
		TBs: []trace.TB{
			{ID: 0, Requests: manyRequests(0, 300)},
			{ID: 1, Requests: manyRequests(1, 7)},
			{ID: 5, Requests: manyRequests(2, 123)},
		},
	}}}
	want := materializedProfile(app, 0, 2, 20, nil)

	acc := NewAccumulator(StreamOptions{Window: 2, Bits: 20})
	st := trace.AppSource(app).Stream()
	for {
		b, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if b.Kernel != nil || len(b.Requests) < 2 {
			acc.Fold(b)
			continue
		}
		// Re-deliver the batch one request at a time.
		for i := range b.Requests {
			sub := trace.Batch{
				KernelIndex: b.KernelIndex,
				TBID:        b.TBID,
				TBStart:     b.TBStart && i == 0,
				Requests:    b.Requests[i : i+1],
			}
			acc.Fold(&sub)
		}
	}
	requireIdentical(t, "split", want, acc.Profile())
}

func manyRequests(seed, n int) []trace.Request {
	out := make([]trace.Request, n)
	for i := range out {
		out[i] = trace.Request{Addr: uint64(seed*2654435761+i*97) & (1<<20 - 1)}
	}
	return out
}

// TestAccumulatorEdgeCases: empty streams, empty kernels, headerless
// batches.
func TestAccumulatorEdgeCases(t *testing.T) {
	// Empty stream → zero profile.
	empty := NewAccumulator(StreamOptions{Window: 12, Bits: 8})
	p := empty.Profile()
	if p.Requests != 0 || len(p.PerBit) != 8 {
		t.Errorf("empty profile = %+v", p)
	}
	for _, v := range p.PerBit {
		if v != 0 {
			t.Error("empty profile must be all zeros")
		}
	}

	// Kernels with no TBs contribute nothing, like the materialized path.
	app := &trace.App{Kernels: []trace.Kernel{
		{Name: "empty", WarpsPerTB: 1},
		{Name: "real", WarpsPerTB: 1, TBs: []trace.TB{{ID: 0, Requests: manyRequests(0, 9)}}},
	}}
	want := materializedProfile(app, 0, 3, 16, nil)
	requireIdentical(t, "empty-kernel", want, streamedProfile(t, app, 0, 3, 16, nil))

	// An empty TB's BVR is 0/0, which equals only another 0/0 and never
	// 0/n: bits 20 and up are 0/n in every non-empty TB here.
	gaps := &trace.App{Kernels: []trace.Kernel{{Name: "gaps", WarpsPerTB: 1, TBs: []trace.TB{
		{ID: 0, Requests: manyRequests(0, 5)},
		{ID: 1},
		{ID: 2, Requests: manyRequests(2, 3)},
		{ID: 3},
		{ID: 4},
		{ID: 5, Requests: manyRequests(5, 6)},
	}}}}
	for _, w := range []int{2, 3, 6} {
		want := materializedProfile(gaps, 0, w, 24, nil)
		if want.PerBit[23] == 0 {
			t.Fatalf("w=%d: bit 23 reads 0, so empty TBs count as 0/n", w)
		}
		requireIdentical(t, fmt.Sprintf("empty-tbs/w%d", w), want, streamedProfile(t, gaps, 0, w, 24, nil))
	}

	// Headerless streams open an implicit kernel instead of dropping
	// requests on the floor.
	acc := NewAccumulator(StreamOptions{Window: 2, Bits: 16})
	acc.Fold(&trace.Batch{TBID: 0, TBStart: true, Requests: manyRequests(0, 4)})
	acc.Fold(&trace.Batch{TBID: 1, TBStart: true, Requests: manyRequests(1, 4)})
	if got := acc.Profile(); got.Requests != 8 {
		t.Errorf("headerless stream folded %d requests, want 8", got.Requests)
	}

	// Folding after Profile is a programming error.
	defer func() {
		if recover() == nil {
			t.Error("Fold after Profile must panic")
		}
	}()
	acc.Fold(&trace.Batch{TBID: 2, TBStart: true})
}

// TestProfileStreamPropagatesError: a failing stream surfaces its error.
func TestProfileStreamPropagatesError(t *testing.T) {
	_, err := ProfileStream(&failingStream{failAfter: 3}, StreamOptions{Window: 2, Bits: 8})
	if err == nil || err.Error() != "boom" {
		t.Errorf("err = %v, want boom", err)
	}
}

type failingStream struct {
	n, failAfter int
	batch        trace.Batch
	hdr          trace.KernelInfo
}

func (s *failingStream) Next() (*trace.Batch, error) {
	s.n++
	if s.n > s.failAfter {
		return nil, errBoom{}
	}
	if s.n == 1 {
		s.hdr = trace.KernelInfo{Name: "k", WarpsPerTB: 1}
		s.batch = trace.Batch{Kernel: &s.hdr, TBID: -1}
		return &s.batch, nil
	}
	s.batch = trace.Batch{TBID: s.n, TBStart: true, Requests: manyRequests(s.n, 5)}
	return &s.batch, nil
}

type errBoom struct{}

func (errBoom) Error() string { return "boom" }

// collectBatches drains st into owned copies of its batches, so a
// benchmark can replay them without the producer's cost.
func collectBatches(b *testing.B, st trace.Stream) (batches []trace.Batch, rows int) {
	b.Helper()
	for {
		in, err := st.Next()
		if err == io.EOF {
			return batches, rows
		}
		if err != nil {
			b.Fatal(err)
		}
		out := *in
		if in.Kernel != nil {
			hdr := *in.Kernel
			out.Kernel = &hdr
		}
		out.Requests = append([]trace.Request(nil), in.Requests...)
		batches = append(batches, out)
		rows += len(in.Requests)
	}
}

// BenchmarkAccumulatorFold measures the streaming fold alone (bit
// counting, the window ring and Equation 1) over the coalesced
// full-scale MT and SP traces at the service's defaults, w = 12 and
// 30 bits. MT is row-heavy (about 250 lines per TB), SP is close-heavy
// (5 lines per TB). One op folds every batch of the trace into one
// long-lived accumulator, each pass opening a new kernel, and must not
// allocate once the ring has grown.
func BenchmarkAccumulatorFold(b *testing.B) {
	for _, abbr := range []string{"MT", "SP"} {
		b.Run(abbr, func(b *testing.B) {
			spec, _ := workload.ByAbbr(abbr)
			batches, rows := collectBatches(b,
				trace.CoalesceStream(trace.AppSource(spec.Build(workload.Full)).Stream(), 128))
			acc := NewAccumulator(StreamOptions{Window: 12, Bits: 30})
			pass := func() {
				for i := range batches {
					acc.Fold(&batches[i])
				}
			}
			if n := testing.AllocsPerRun(1, pass); n != 0 {
				b.Fatalf("a warm pass allocates %v times, want 0", n)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pass()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
	}
}
