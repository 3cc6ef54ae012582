package sim

import (
	"fmt"
	"math/bits"
)

// Time is a simulation timestamp or duration in picoseconds.
//
// Picosecond resolution lets the three clock domains of the modeled GPU
// (1.4 GHz core, 924 MHz DRAM command clock, 700 MHz NoC) coexist on one
// integer clock without rounding drift.
type Time int64

// Convenient duration units.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Nanoseconds converts t to floating-point nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

func (t Time) String() string {
	switch {
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	case t >= Nanosecond:
		return fmt.Sprintf("%.3fns", float64(t)/float64(Nanosecond))
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// Clock describes a periodic clock domain and converts cycle counts to
// simulation time.
type Clock struct {
	// Period is the duration of one cycle.
	Period Time
}

// ClockFromMHz builds a Clock for the given frequency in MHz.
// The period is rounded to the nearest picosecond.
func ClockFromMHz(mhz float64) Clock {
	return Clock{Period: Time(1e6/mhz + 0.5)}
}

// Cycles converts a cycle count in this domain to a duration.
func (c Clock) Cycles(n int64) Time { return Time(n) * c.Period }

// ToCycles converts a duration to (possibly fractional) cycles.
func (c Clock) ToCycles(t Time) float64 { return float64(t) / float64(c.Period) }

// Handler is a pooled-event callback. Pairing a package-level function
// (or any long-lived func value) with a pointer-shaped arg schedules
// with zero allocation: both slot directly into the engine's recycled
// event records. Closures still work — they just allocate at the
// caller, which is exactly what the handler API exists to avoid on hot
// paths.
type Handler func(arg any)

// eventRec is one slot in the engine's event slab. next threads the
// record onto its bucket's FIFO list while pending and onto the free
// list once fired, as a slot number plus one so that 0 ends a list.
type eventRec struct {
	at   Time
	next int32
	h    Handler
	arg  any
}

// Engine is a discrete-event simulator. The zero value is ready to use.
//
// Pending events live in a slab of recycled records, queued in a radix
// heap keyed on event time. An event at t sits in bucket
// bits.Len64(t ^ last), where last is the latest minimum: bucket 0
// holds the events due at last, and each bucket's events precede every
// higher bucket's. Inserting compares no keys; when bucket 0 runs dry,
// the lowest non-empty bucket is redistributed around its minimum.
// Buckets are FIFO and equal times always share one, so events
// scheduled for the same instant fire in scheduling order — see doc.go
// for the full determinism contract.
type Engine struct {
	now     Time
	last    Time // radix base: last <= now, and every pending event is at >= last
	fired   uint64
	pending int
	free    int32 // head of the recycled-slot list
	slab    []eventRec
	head    [65]int32 // per-bucket FIFO lists of pending events
	tail    [65]int32
	first   [65]Time // earliest event time in each non-empty bucket
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Events returns the number of events executed so far.
func (e *Engine) Events() uint64 { return e.fired }

// Pending returns the number of scheduled-but-unfired events.
func (e *Engine) Pending() int { return e.pending }

// Schedule runs fn after delay. A negative delay panics: the engine cannot
// rewrite history.
func (e *Engine) Schedule(delay Time, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	e.At(e.now+delay, fn)
}

// At runs fn at absolute time t (>= Now). The closure fn allocates at
// the caller; hot paths should use AtCall with a pooled arg instead.
func (e *Engine) At(t Time, fn func()) {
	e.AtCall(t, callFunc, fn)
}

// callFunc adapts the closure API onto the handler path. Func values
// are pointer-shaped, so boxing fn into arg does not allocate.
func callFunc(arg any) { arg.(func())() }

// ScheduleCall runs h(arg) after delay; the handler-style twin of
// Schedule.
func (e *Engine) ScheduleCall(delay Time, h Handler, arg any) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	e.AtCall(e.now+delay, h, arg)
}

// AtCall runs h(arg) at absolute time t (>= Now). With a long-lived h
// and a pooled arg this is the zero-allocation scheduling path: the
// event record comes from the engine's free list and returns to it when
// the event fires.
func (e *Engine) AtCall(t Time, h Handler, arg any) {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, e.now))
	}
	ref := e.free
	if ref != 0 {
		e.free = e.slab[ref-1].next
	} else {
		e.slab = append(e.slab, eventRec{})
		ref = int32(len(e.slab))
	}
	r := &e.slab[ref-1]
	r.at, r.h, r.arg = t, h, arg
	e.link(bits.Len64(uint64(t^e.last)), ref, t)
	e.pending++
}

// Run executes events until the queue drains and returns the final time.
func (e *Engine) Run() Time {
	for e.pending > 0 {
		e.step()
	}
	return e.now
}

// RunUntil executes events with timestamps <= deadline. It returns true if
// the queue drained, false if the deadline was hit first. Time advances to
// min(deadline, last event time) and never moves backwards.
func (e *Engine) RunUntil(deadline Time) bool {
	for e.pending > 0 {
		next := e.last
		if e.head[0] == 0 {
			next = e.first[e.lowest()]
		}
		if next > deadline {
			// Stop without redistributing, so that last stays <= now.
			e.now = max(e.now, deadline)
			return false
		}
		e.step()
	}
	return true
}

// RunBounded executes at most maxEvents events. It returns true if the
// queue drained, false if the budget ran out first. Callers use it as a
// cancellation checkpoint: run a bounded batch, poll for cancellation,
// repeat. A non-positive budget executes nothing and reports whether the
// queue is already empty.
func (e *Engine) RunBounded(maxEvents int) bool {
	for ; maxEvents > 0 && e.pending > 0; maxEvents-- {
		e.step()
	}
	return e.pending == 0
}

// Reset returns the engine to time zero with an empty queue, keeping
// the slab capacity for reuse. Any still-pending events are dropped. A
// Reset engine behaves exactly like a zero-value Engine, so a reused
// engine reproduces a fresh engine's run bit for bit (the determinism
// regression tests pin this).
func (e *Engine) Reset() {
	clear(e.slab) // drop handler and arg references
	*e = Engine{slab: e.slab[:0]}
}

// step fires the earliest event. The slot is recycled before the
// handler runs so the handler's own scheduling can reuse it.
func (e *Engine) step() {
	ref := e.head[0]
	if ref == 0 {
		ref = e.redistribute()
	}
	r := &e.slab[ref-1]
	e.head[0] = r.next
	e.now = r.at
	h, arg := r.h, r.arg
	r.h, r.arg = nil, nil // drop references so pooled args can be collected
	r.next, e.free = e.free, ref
	e.pending--
	e.fired++
	h(arg)
}

// link appends slot ref, an event at t, to bucket b's FIFO list.
func (e *Engine) link(b int, ref int32, t Time) {
	e.slab[ref-1].next = 0
	if e.head[b] == 0 {
		e.head[b], e.first[b] = ref, t
	} else {
		e.slab[e.tail[b]-1].next = ref
		e.first[b] = min(e.first[b], t)
	}
	e.tail[b] = ref
}

// lowest returns the lowest non-empty bucket above 0. The queue must
// hold an event outside bucket 0.
func (e *Engine) lowest() int {
	b := 1
	for e.head[b] == 0 {
		b++
	}
	return b
}

// redistribute refills the empty bucket 0 and returns its first event.
// It advances last to the earliest time in the lowest non-empty bucket
// and relinks that bucket's events, in list order, into bucket
// Len64(at ^ last). All of them land in lower buckets, which are empty,
// so every bucket stays FIFO; events in higher buckets keep their
// bucket under the new last. A lone event fires straight from its old
// bucket.
func (e *Engine) redistribute() int32 {
	b := e.lowest()
	ref := e.head[b]
	e.head[b] = 0
	e.last = e.first[b]
	if e.slab[ref-1].next == 0 {
		return ref
	}
	for ref != 0 {
		r := &e.slab[ref-1]
		next := r.next
		e.link(bits.Len64(uint64(r.at^e.last)), ref, r.at)
		ref = next
	}
	return e.head[0]
}

// Server models a single resource that serves one request at a time in
// arrival order (a next-free-time server). It captures serialization and
// queueing delay at pipelined units such as cache ports, NoC links and
// DRAM data buses without per-cycle simulation.
type Server struct {
	freeAt Time
	busy   Time // cumulative busy time, for utilization
}

// Acquire reserves the server at or after now for the given service time
// and returns the start and completion instants.
func (s *Server) Acquire(now, service Time) (start, done Time) {
	start = now
	if s.freeAt > start {
		start = s.freeAt
	}
	done = start + service
	s.freeAt = done
	s.busy += service
	return start, done
}

// BusyTime reports cumulative service time delivered.
func (s *Server) BusyTime() Time { return s.busy }

// Utilization returns busy time as a fraction of the elapsed horizon.
func (s *Server) Utilization(horizon Time) float64 {
	if horizon <= 0 {
		return 0
	}
	return float64(s.busy) / float64(horizon)
}
