package sim

import (
	"fmt"
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
