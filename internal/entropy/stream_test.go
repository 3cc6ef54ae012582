package entropy

import (
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
// clamped single-window path).
func TestStreamProfileGoldenParameterSweep(t *testing.T) {
	spec, _ := workload.ByAbbr("SP")
	app := spec.Build(workload.Tiny)
	cases := []struct {
		name                    string
		lineBytes, window, bits int
	}{
		{"w1", 128, 1, 30},
		{"w4-b16", 128, 4, 16},
		{"line512", 512, 12, 30},
		{"uncoalesced", 0, 12, 30},
		{"window-larger-than-kernel", 128, 100000, 30},
	}
	for _, tc := range cases {
		want := materializedProfile(app, tc.lineBytes, tc.window, tc.bits, nil)
		requireIdentical(t, "SP/"+tc.name,
			want, streamedProfile(t, app, tc.lineBytes, tc.window, tc.bits, nil))
	}
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
