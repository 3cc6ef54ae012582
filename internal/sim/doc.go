// Package sim provides a small deterministic discrete-event simulation
// kernel: a picosecond-resolution clock, a pooled-event queue,
// single-server resources, and time-weighted statistics integrators.
// The whole GPU memory-subsystem model is built on this engine.
//
// # Pooled events
//
// The engine stores events in a slab of recycled records queued in a
// hierarchical timing wheel keyed on event time (Varghese and Lauck,
// SOSP 1987), which is a radix heap over 4096-ary digits. The wheel has
// six levels of 4096 slots, each slot a FIFO list threaded through the
// slab records. An event at t sits on the level of the highest 12-bit
// digit in which t differs from the wheel's base last, in the slot
// named by that digit of t, so level 0's slots are exact picoseconds.
// Scheduling takes a record off the slab's free list and appends it to
// its slot without comparing times. A one-word mask of occupied levels
// and, per level, an occupancy bitmap under a summary word find the
// next slot with two or three bits.TrailingZeros64 calls. When level 0
// is empty, last moves to the start of the lowest occupied slot and
// that slot cascades: its events relink, in list order, onto the lower
// levels, which are empty. An event therefore moves at most five times;
// on the paper suite it moves about once (Relinks counts the moves).
// Firing returns the record to the free list, so steady-state event
// churn performs zero allocations. Like a radix heap, the wheel needs
// monotone extraction, which the engine enforces anyway: nothing can be
// scheduled before Now().
//
// There are two scheduling APIs:
//
//   - At(t, func()) / Schedule(d, func()) — the closure API. Convenient,
//     but every call site that captures state allocates a closure.
//   - AtCall(t, h, arg) / ScheduleCall(d, h, arg) — the handler API.
//     h is a long-lived Handler (typically a package-level function)
//     and arg a pointer to per-request state, usually itself pooled by
//     the caller. Nothing on this path allocates.
//
// The substrate models (gpu, noc, dram, gpusim) schedule exclusively
// through the handler API, pooling their per-request records; the
// closure API remains for tests and cold paths. TestHandlerScheduleZeroAlloc
// pins the handler path at zero allocations for a burst, a
// self-rescheduling chain, fanouts 1024 and 16384 events deep and a
// fanout whose events land on every level of the wheel, and holds each
// shape to at most five relinks per event fired.
//
// # Determinism contract
//
// Events fire in (time, scheduling order): events scheduled for the same
// instant fire in the order they were scheduled. The queue keeps this
// without sequence numbers and without sorting any list. Equal times
// always share a slot, since an event's slot depends only on its time
// and last; appending, and relinking a cascaded slot in list order onto
// levels that are empty, both keep every slot in scheduling order.
//
// This needs every event scheduled later to be at or after last, so
// last must not pass Now() where a handler or a caller can schedule. A
// cascade sets last to the start of the lowest occupied slot, which can
// be later than Now(), and it happens only inside step and RunUntil,
// with no handler between it and what follows. step then fires the
// earliest event, which sets Now() to a time at or after last before
// its handler runs. RunUntil compares the deadline with the lowest
// slot's start and cascades only when that start is at or before the
// deadline, so it either fires an event or stops with Now() = deadline
// >= last; it never moves the clock backwards.
// FuzzEngineOrder checks the order against a reference queue under
// arbitrary schedule, run and reset programs, with delays that reach
// every digit boundary below 2^40 ps.
//
// Pooling does not affect the order either: record recycling changes
// which slab record an event occupies, never its position in its list,
// and no model behavior depends on object identity. Consequently a
// simulation is a pure function of its inputs: identical (trace,
// mapping, config) produce byte-identical results, whether the engine
// is freshly zero-valued, Reset() for reuse, or handed recycled pool
// objects. The gpusim determinism regression tests pin all three
// cases, and gpusim's golden digest pins the results themselves.
package sim
