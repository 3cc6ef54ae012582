// Package sim provides a small deterministic discrete-event simulation
// kernel: a picosecond-resolution clock, a pooled-event queue,
// single-server resources, and time-weighted statistics integrators.
// The whole GPU memory-subsystem model is built on this engine.
//
// # Pooled events
//
// The engine stores events in a slab of recycled records queued in a
// radix heap keyed on event time (Ahuja, Mehlhorn, Orlin and Tarjan,
// J. ACM 1990): 65 buckets, each a FIFO list threaded through the slab
// records, with an event at t in bucket bits.Len64(t ^ last), where
// last is the time of the latest minimum. Scheduling takes a record off
// the slab's free list and appends it to its bucket without comparing
// keys; when the bucket of events due at last runs dry, the lowest
// non-empty bucket is redistributed around its minimum into lower
// buckets, so an event moves at most 64 times. Firing returns the
// record to the free list, so steady-state event churn performs zero
// allocations. A radix heap needs monotone extraction, which the engine
// enforces anyway: nothing can be scheduled before Now().
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
// self-rescheduling chain and fanouts 1024 and 16384 events deep.
//
// # Determinism contract
//
// Events fire in (time, scheduling order): events scheduled for the same
// instant fire in the order they were scheduled. The queue keeps this
// without sequence numbers. Equal times always share a bucket, since an
// event's bucket depends only on its time and last; appending, and
// relinking a redistributed bucket in list order into buckets that are
// empty, both keep every bucket in scheduling order. This holds as long
// as last never passes Now(), so that every event scheduled later is at
// or after last: RunUntil therefore stops at a deadline without
// redistributing, and never moves the clock backwards.
// FuzzEngineOrder checks the order against a reference queue under
// arbitrary schedule, run and reset programs.
//
// Pooling does not affect the order either: record recycling changes
// which slab slot an event occupies, never its position in its bucket,
// and no model behavior depends on object identity. Consequently a
// simulation is a pure function of its inputs: identical (trace,
// mapping, config) produce byte-identical results, whether the engine
// is freshly zero-valued, Reset() for reuse, or handed recycled pool
// objects. The gpusim determinism regression tests pin all three
// cases, and gpusim's golden digest pins the results themselves.
package sim
