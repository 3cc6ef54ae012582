package trace_test

import (
	"io"
	"testing"

	"valleymap/internal/trace"
	"valleymap/internal/workload"
)

// replayStream serves a fixed list of batches round and round, so a
// benchmark can pull a trace through a stage any number of times
// without the producer's cost.
type replayStream struct {
	batches []trace.Batch
	i       int
}

func (r *replayStream) Next() (*trace.Batch, error) {
	b := &r.batches[r.i]
	if r.i++; r.i == len(r.batches) {
		r.i = 0
	}
	return b, nil
}

// BenchmarkCoalesceStream measures the streaming coalescer alone over
// the full-scale MT and SP traces at 128-byte lines. MT's warp runs are
// 32 accesses to mostly distinct lines; SP's are up to 128 accesses to
// a few lines. One op pulls every batch of the trace through one
// long-lived coalescer and must not allocate once it has grown.
func BenchmarkCoalesceStream(b *testing.B) {
	for _, abbr := range []string{"MT", "SP"} {
		b.Run(abbr, func(b *testing.B) {
			spec, _ := workload.ByAbbr(abbr)
			src := &replayStream{}
			rows := 0
			st := trace.AppSource(spec.Build(workload.Full)).Stream()
			for {
				in, err := st.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					b.Fatal(err)
				}
				out := *in
				out.Requests = append([]trace.Request(nil), in.Requests...)
				src.batches = append(src.batches, out)
				rows += len(in.Requests)
			}
			co := trace.CoalesceStream(src, 128)
			pass := func() {
				for range src.batches {
					if _, err := co.Next(); err != nil {
						b.Fatal(err)
					}
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
