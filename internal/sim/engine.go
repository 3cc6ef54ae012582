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

// eventRec is one record in the engine's event slab. next threads the
// record onto its wheel slot's FIFO list while pending and onto the
// free list once fired, as a slab index plus one so that 0 ends a list.
type eventRec struct {
	at   Time
	next int32
	h    Handler
	arg  any
}

// The queue is a hierarchical timing wheel: wheelLevels levels of
// wheelSlots slots, level l splitting time by the l-th wheelBits-bit
// digit. At 12 bits a level's occupancy is 64 words under a one-word
// summary, and the wheel costs about 196 KB per engine.
const (
	wheelBits   = 12
	wheelSlots  = 1 << wheelBits
	wheelLevels = (64 + wheelBits - 1) / wheelBits
)

// wheelLevel is one level of the timing wheel. A slot's head and tail
// name the first and last event of its FIFO list and mean something
// only while the slot's bit in occ is set; summary has bit w set while
// occ[w] is non-zero.
type wheelLevel struct {
	summary uint64
	occ     [wheelSlots / 64]uint64
	head    [wheelSlots]int32
	tail    [wheelSlots]int32
}

// lowest returns the lowest occupied slot. The level must hold an
// event.
func (lv *wheelLevel) lowest() uint64 {
	w := uint64(bits.TrailingZeros64(lv.summary))
	return w*64 + uint64(bits.TrailingZeros64(lv.occ[w]))
}

// vacate marks slot s empty and reports whether the level is now empty.
func (lv *wheelLevel) vacate(s uint64) bool {
	w := s / 64
	if lv.occ[w] &^= 1 << (s % 64); lv.occ[w] == 0 {
		lv.summary &^= 1 << w
	}
	return lv.summary == 0
}

// Engine is a discrete-event simulator. The zero value is ready to use.
//
// Pending events live in a slab of recycled records, queued in a
// hierarchical timing wheel keyed on event time (Varghese and Lauck,
// SOSP 1987). An event at t sits on the level of the highest
// wheelBits-bit digit in which t differs from the wheel's base last, in
// the slot named by that digit of t. Level 0's slots are therefore
// exact picoseconds, and every event on a level precedes every event on
// the levels above it. Slots are FIFO lists. When level 0 runs dry,
// last moves to the start of the lowest occupied slot and that slot
// cascades: its events relink, in list order, onto the lower levels,
// which are empty. An event moves at most wheelLevels-1 times, and
// equal times always share a slot, so events scheduled for the same
// instant fire in scheduling order — see doc.go for the full
// determinism contract.
type Engine struct {
	now     Time
	last    Time // wheel base: every pending event is at >= last
	fired   uint64
	relinks uint64
	pending int
	free    int32  // head of the recycled-record list
	levels  uint64 // bit l set while wheel level l holds an event
	slab    []eventRec
	wheel   [wheelLevels]wheelLevel
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Events returns the number of events executed so far.
func (e *Engine) Events() uint64 { return e.fired }

// Relinks returns the number of times the queue has moved a pending
// event from one list to another since the last Reset: one per event
// per cascade that carries it. It counts the queue's work exactly:
// divided by Events, it is the bookkeeping each event costs beyond its
// own insert and removal, and it never exceeds five per event.
func (e *Engine) Relinks() uint64 { return e.relinks }

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
// event record comes from the engine's free list, is appended to the
// tail of its wheel slot without comparing times, and returns to the
// free list when the event fires.
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
	e.link(ref, t)
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
//
// It compares the deadline with the start of the lowest occupied slot,
// which on level 0 is the next event's time, and cascades a slot only
// when that start is <= deadline. So the wheel's base never passes the
// clock, and events scheduled after a deadline stop still file
// correctly.
func (e *Engine) RunUntil(deadline Time) bool {
	for e.pending > 0 {
		l := uint(bits.TrailingZeros64(e.levels))
		if e.slotStart(l, e.wheel[l].lowest()) > deadline {
			e.now = max(e.now, deadline)
			return false
		}
		if l == 0 {
			e.step()
		} else {
			e.cascade()
		}
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

// Reset returns the engine to time zero with an empty wheel and zero
// counts, keeping the slab capacity for reuse. Any still-pending events
// are dropped. A Reset engine behaves exactly like a zero-value Engine,
// so a reused engine reproduces a fresh engine's run bit for bit (the
// determinism regression tests pin this).
func (e *Engine) Reset() {
	clear(e.slab) // drop handler and arg references
	*e = Engine{slab: e.slab[:0]}
}

// step fires the earliest event, cascading first if level 0 is empty.
// Between a cascade and the firing, last is the cascaded slot's start
// and may be later than Now(); the firing sets Now() to an event at or
// after last. The record is recycled before the handler runs so the
// handler's own scheduling can reuse it.
func (e *Engine) step() {
	for e.levels&1 == 0 {
		e.cascade()
	}
	lv := &e.wheel[0]
	s := lv.lowest()
	ref := lv.head[s]
	r := &e.slab[ref-1]
	if lv.head[s] = r.next; r.next == 0 && lv.vacate(s) {
		e.levels &^= 1
	}
	e.now = r.at
	h, arg := r.h, r.arg
	r.h, r.arg = nil, nil // drop references so pooled args can be collected
	r.next, e.free = e.free, ref
	e.pending--
	e.fired++
	h(arg)
}

// link appends record ref, an event at t, to the FIFO list of its
// wheel slot under the current base.
func (e *Engine) link(ref int32, t Time) {
	l := uint(bits.Len64(uint64(t^e.last)|1)-1) / wheelBits
	s := uint64(t) >> (l * wheelBits) & (wheelSlots - 1)
	lv := &e.wheel[l]
	e.slab[ref-1].next = 0
	if w, bit := s/64, uint64(1)<<(s%64); lv.occ[w]&bit == 0 {
		lv.occ[w] |= bit
		lv.summary |= 1 << w
		e.levels |= 1 << l
		lv.head[s] = ref
	} else {
		e.slab[lv.tail[s]-1].next = ref
	}
	lv.tail[s] = ref
}

// slotStart returns the earliest time slot s of level l can hold under
// the current base. On level 0 that is the time of the slot's events.
func (e *Engine) slotStart(l uint, s uint64) Time {
	shift := l * wheelBits
	return Time(uint64(e.last)>>(shift+wheelBits)<<(shift+wheelBits) | s<<shift)
}

// cascade empties the lowest occupied slot of the lowest occupied
// level, which must be above level 0, into the levels below it. last
// moves to the slot's start. Every event in the slot is at or after
// that start and shares its digits from the slot's level up, so each
// lands on a lower level, and those are empty: relinking in list order
// keeps every slot FIFO. Events in other slots keep their level and
// slot under the new base.
func (e *Engine) cascade() {
	l := uint(bits.TrailingZeros64(e.levels))
	lv := &e.wheel[l]
	s := lv.lowest()
	if lv.vacate(s) {
		e.levels &^= 1 << l
	}
	e.last = e.slotStart(l, s)
	for ref := lv.head[s]; ref != 0; {
		r := &e.slab[ref-1]
		next := r.next
		e.link(ref, r.at)
		e.relinks++
		ref = next
	}
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
