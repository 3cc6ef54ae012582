package sim

import "testing"

// TestHandlerScheduleZeroAlloc is the in-repo guard for the pooled
// engine's core guarantee: once the slab has grown to the peak pending
// count, handler-style scheduling and firing allocate nothing. Besides
// a 64-event burst it runs the shapes of the engine microbenchmarks: the
// self-rescheduling chain of BenchmarkEngineChurn and the 1024- and
// 16384-deep pending queues of BenchmarkEngineFanout (the paper suite
// peaks at about 18k pending events on MT at small scale), and a far
// shape whose events land on every level of the wheel.
// AllocsPerRun's warm-up run grows the slab, so every measured run must
// allocate nothing.
//
// Every shape must also keep the queue's work bounded: no event moves
// more than once per wheel level below its first, so relinks stay
// within (wheelLevels-1) × events fired. The bound is an exact count,
// not a timing, so it holds on any host; a queue that walks or sorts
// its slots' lists would break it on the dense fanouts.
func TestHandlerScheduleZeroAlloc(t *testing.T) {
	fanout := func(width int) func(e *Engine) func() {
		return func(e *Engine) func() {
			n := 0
			var step Handler
			step = func(any) {
				if n++; n <= 4*width {
					e.ScheduleCall(Time(1+(n*2654435761)%97), step, nil)
				}
			}
			return func() {
				n = 0
				for i := 0; i < width; i++ {
					e.ScheduleCall(Time(1+i%97), step, nil)
				}
				e.Run()
			}
		}
	}
	shapes := map[string]func(e *Engine) func(){
		"burst": func(e *Engine) func() {
			ping := func(any) {}
			return func() {
				for i := 0; i < 64; i++ {
					e.ScheduleCall(Time(i%7), ping, nil)
				}
				e.Run()
			}
		},
		"churn": func(e *Engine) func() {
			n := 0
			var step Handler
			step = func(any) {
				if n++; n < 4096 {
					e.ScheduleCall(1, step, nil)
				}
			}
			return func() {
				n = 0
				e.ScheduleCall(1, step, nil)
				e.Run()
			}
		},
		"fanout":       fanout(1024),
		"fanout-16384": fanout(16384),
		// far runs a 1024-deep fanout with delays of 2^0 to 2^40 ps on a
		// Reset engine whose clock first moves to 2^60 - 2^40 ps: that
		// event cascades from level 4 through level 3, the fanout's
		// delays fill levels 0 to 3, and the events past 2^60 land on
		// level 5, so every level files and cascades events.
		"far": func(e *Engine) func() {
			const width = 1024
			delay := func(i int) Time { return 1 << (i * 7 % 41) }
			n := 0
			var step Handler
			step = func(any) {
				if n++; n <= 4*width {
					e.ScheduleCall(delay(n), step, nil)
				}
			}
			return func() {
				e.Reset()
				e.AtCall(1<<60-1<<40, func(any) {}, nil)
				e.Run()
				n = 0
				for i := 0; i < width; i++ {
					e.ScheduleCall(delay(i), step, nil)
				}
				e.Run()
			}
		},
	}
	for name, shape := range shapes {
		t.Run(name, func(t *testing.T) {
			var e Engine
			if avg := testing.AllocsPerRun(20, shape(&e)); avg != 0 {
				t.Errorf("steady-state %s scheduling allocates %v allocs per run, want 0", name, avg)
			}
			if e.Events() == 0 {
				t.Fatalf("%s fired no events", name)
			}
			if limit := (wheelLevels - 1) * e.Events(); e.Relinks() > limit {
				t.Errorf("%s: %d relinks for %d events, want at most %d", name, e.Relinks(), e.Events(), limit)
			}
		})
	}
}

// TestResetReproducesFreshEngine pins Reset's contract: a reused engine
// must behave exactly like a zero-value one, including event ordering
// and sequence-number ties.
func TestResetReproducesFreshEngine(t *testing.T) {
	runOnce := func(e *Engine) []int {
		var order []int
		e.Schedule(30, func() { order = append(order, 3) })
		e.Schedule(10, func() { order = append(order, 1) })
		e.Schedule(20, func() { order = append(order, 2) })
		e.Schedule(20, func() { order = append(order, 4) })
		e.Run()
		return order
	}
	var fresh Engine
	want := runOnce(&fresh)

	var reused Engine
	runOnce(&reused)
	reused.Reset()
	if reused.Now() != 0 || reused.Pending() != 0 || reused.Events() != 0 || reused.Relinks() != 0 {
		t.Fatalf("Reset left state: now=%v pending=%d events=%d relinks=%d", reused.Now(), reused.Pending(), reused.Events(), reused.Relinks())
	}
	got := runOnce(&reused)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reused order = %v, want %v", got, want)
		}
	}
}

// TestResetDropsPendingEvents: events still queued at Reset must not
// fire afterwards.
func TestResetDropsPendingEvents(t *testing.T) {
	var e Engine
	fired := false
	e.Schedule(10, func() { fired = true })
	e.Reset()
	e.Run()
	if fired {
		t.Error("event scheduled before Reset fired after it")
	}
}
