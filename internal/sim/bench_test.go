package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkEngineChurn is the steady-state scheduling microbenchmark:
// one event in flight at a time, each firing schedules the next. This is
// the pattern every substrate model (SM advance, DRAM kick, NoC hop)
// drives the engine with, so its allocs/op is the engine's steady-state
// allocation rate — TestHandlerScheduleZeroAlloc asserts it stays at
// zero.
func BenchmarkEngineChurn(b *testing.B) {
	var e Engine
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	var step Handler
	step = func(arg any) {
		n++
		if n < b.N {
			e.ScheduleCall(1, step, nil)
		}
	}
	e.ScheduleCall(1, step, nil)
	e.Run()
	if n != b.N {
		b.Fatalf("fired %d, want %d", n, b.N)
	}
}

// BenchmarkEngineFanout keeps a deep pending queue to exercise the
// queue under realistic occupancy: 1024 events, and 16384, about the
// peak the paper suite reaches on MT at small scale.
func BenchmarkEngineFanout(b *testing.B) {
	for _, width := range []int{1024, 16384} {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			var e Engine
			b.ReportAllocs()
			n := 0
			var step Handler
			step = func(arg any) {
				n++
				if n <= b.N {
					// Pseudo-random-ish delays spread events across the queue.
					e.ScheduleCall(Time(1+(n*2654435761)%97), step, nil)
				}
			}
			b.ResetTimer()
			for i := 0; i < width; i++ {
				e.ScheduleCall(Time(1+i%97), step, nil)
			}
			e.Run()
		})
	}
}

// clockDelays returns n event delays shaped like the simulator's: whole
// cycles of its three clocks (714, 1082 and 1429 ps, the 1.4 GHz core,
// the 924 MHz DRAM and the 700 MHz NoC), 72% under 2^16 ps, 93% under
// 2^20 ps and none at 2^26 ps or more, as in the paper suite's delay
// histogram at small scale.
func clockDelays(n int) []Time {
	periods := [...]Time{714, 1082, 1429}
	rng := rand.New(rand.NewSource(1))
	out := make([]Time, n)
	for i := range out {
		var lo, hi Time
		switch u := rng.Intn(100); {
		case u < 72:
			lo, hi = 1, 1<<16
		case u < 93:
			lo, hi = 1<<16, 1<<20
		default:
			lo, hi = 1<<20, 1<<26
		}
		p := periods[i%len(periods)]
		first, last := (lo+p-1)/p, (hi-1)/p // the cycle counts inside [lo, hi)
		out[i] = p * (first + Time(rng.Int63n(int64(last-first+1))))
	}
	return out
}

// BenchmarkEngineClocks runs the queue at the paper suite's shape:
// about 18k pending events, the peak it reaches on MT at small scale,
// each firing scheduling the next at a delay from clockDelays. It
// reports the queue's relinks per event beside the time.
func BenchmarkEngineClocks(b *testing.B) {
	const pending = 18 << 10
	delays := clockDelays(4096)
	var e Engine
	b.ReportAllocs()
	n := 0
	var step Handler
	step = func(any) {
		if n++; n <= b.N {
			e.ScheduleCall(delays[n%len(delays)], step, nil)
		}
	}
	for i := 0; i < pending; i++ {
		e.ScheduleCall(delays[i%len(delays)], step, nil)
	}
	b.ResetTimer()
	e.Run()
	b.StopTimer()
	b.ReportMetric(float64(e.Relinks())/float64(e.Events()), "relinks/event")
}

// BenchmarkEngineClosure measures the legacy closure pattern — a fresh
// capturing closure per event, which is what every pre-refactor call
// site did — for comparison with the handler path (it allocates per
// event by construction).
func BenchmarkEngineClosure(b *testing.B) {
	var e Engine
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	var step func(v int)
	step = func(v int) {
		n++
		if n < b.N {
			next := v + 1
			e.Schedule(1, func() { step(next) })
		}
	}
	e.Schedule(1, func() { step(0) })
	e.Run()
}
