package cache

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"testing"
)

// warmKeys is the benchmark working set, small enough that everything
// stays memory-resident.
const warmKeys = 1024

// BenchmarkWarmGetParallel drives 64 logical goroutines of warm
// LRU.GetOrCompute traffic over a preloaded memory tier. Every lookup
// must be a hit; a single compute means the preload or the cache is
// broken and the numbers are garbage, so it fails the benchmark.
func BenchmarkWarmGetParallel(b *testing.B) {
	c := NewLRU(LRUOptions[int]{Capacity: warmKeys})
	keys := make([]string, warmKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("sim|W%03d|tiny|BASE|baseline|%d", i, i)
		c.GetOrCompute(keys[i], func() (int, error) { return i, nil })
	}
	var computes atomic.Int64
	var goroutineSeq atomic.Int64
	// SetParallelism multiplies GOMAXPROCS: aim for 64 concurrent
	// goroutines regardless of the host's core count.
	procs := runtime.GOMAXPROCS(0)
	b.SetParallelism((64 + procs - 1) / procs)
	b.ReportAllocs()
	// Wall time under-reports lock contention on hosts with few cores
	// (blocked goroutines overlap the holder's useful work), so also
	// report the runtime's aggregate mutex wait per operation.
	sample := []metrics.Sample{{Name: "/sync/mutex/wait/total:seconds"}}
	metrics.Read(sample)
	waitBefore := sample[0].Value.Float64()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Per-goroutine xorshift over the key space, seeded distinctly so
		// goroutines do not march in lockstep over the same keys.
		r := uint64(goroutineSeq.Add(1))*0x9e3779b97f4a7c15 + 1
		for pb.Next() {
			r ^= r << 13
			r ^= r >> 7
			r ^= r << 17
			k := keys[r%warmKeys]
			if _, _, err := c.GetOrCompute(k, func() (int, error) {
				computes.Add(1)
				return 0, nil
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	metrics.Read(sample)
	b.ReportMetric((sample[0].Value.Float64()-waitBefore)*1e9/float64(b.N), "mutex-wait-ns/op")
	if n := computes.Load(); n != 0 {
		b.Fatalf("%d computes during a warm benchmark — lookups were misses, numbers are invalid", n)
	}
}
