// Package service is the engine behind valleyd: it packages the
// library's entropy profiling, mapping advice and full-system simulation
// as a concurrent, cached network service. The building blocks are a
// content-addressed profile cache with in-flight coalescing (cache.go,
// over internal/cache.LRU), a bounded worker pool executing simulation
// sweep jobs (jobs.go), a per-job event bus streaming sweep progress
// (events.go), a two-tier simulation-result cache that spills to disk
// (cache.go, over internal/cache.Tiered), and a stdlib net/http JSON
// API over all of it (http.go), with Prometheus-style plain-text
// metrics rendered by one obs.Registry (metrics.go).
//
// # Profile path
//
// Every /v1/profile and /v1/advise input is resolved once and profiled
// through one cached compute. resolveInput turns a request's workload,
// trace_csv or trace_file into a profileInput (trace info, cache
// identity wl:ABBR:scale or tr:<sha>, a restartable source or a one-shot
// body, the container's stage labels, a release func); the stream and
// ProfileTrace entry points build theirs directly. profile alone keys,
// looks up and computes, under one of two semaphores: profileSem
// (Workers slots) for restartable inputs, which may hold a trace in
// memory, and streamSem (4 × Workers) for one-shot bodies, which hold
// O(window × bits) but read a client's body mid-compute and so must not
// starve profileSem. A one-shot body's key is its hash, known only once
// drained, so it is profiled before the lookup: its hit dedupes
// storage, not compute. Advise reads a container at most once: that
// pass is observed under the container's format label, every pass over
// the in-memory copy as native.
//
// # Cell-execution core vs dispatch
//
// Every sweep and cell entry point resolves its input one way:
// resolveCoords turns the wire config, scale and seed (0 = 1) into run
// coordinates, which own the sim-cache key, and binds cells to them as
// cellExecs. resolveSweep turns a request into a sweepPlan (run
// coordinates, workload and scheme axes listed once each, and the
// grid's cells in result order), which admission prices; an accepted
// plan runs as a sweep, whose deliver and fail are the only ways a cell
// outcome reaches the job. executeCell (dispatch.go) runs one cell
// through the two-tier cache and the pooled engine, not knowing who
// asked, and cellTask is the only way a cell is queued on the pool:
// queue wait, cell span, panic fence, one report per cell. One
// dispatcher, dispatchLocal, runs every cell of a plan on the local
// pool, or inline in degraded mode.
//
// # Streaming sweeps
//
// A simulation sweep is asynchronous: POST /v1/simulate returns 202
// with a job handle, and clients may poll GET /v1/jobs/{id}. Polling
// only observes whole-sweep completion, so every running job also
// publishes events on a per-job bus:
//
//	start                                              the job was accepted (seq 0)
//	cell × done_cells                                  one per finished workload × scheme cell
//	done | failed | canceled | deadline_exceeded       terminal; done carries the aggregate
//
// Two endpoints expose the stream as NDJSON (one JSON event per line,
// flushed as published): POST /v1/simulate?stream=1 submits and streams
// in one request, and GET /v1/jobs/{id}/events attaches to any retained
// job — ?from=seq resumes after a disconnect, replaying retained events
// with Seq >= from before tailing live.
//
// Event-ordering guarantee: events carry a dense, ascending Seq; every
// cell event is published before the terminal event; and a subscriber
// observes its events in Seq order with no duplicates and no gaps. A
// streaming client therefore always sees the first finished cell
// strictly before the job reports done. Fan-out to subscribers uses
// bounded buffers: a consumer that falls behind the live tail costs a
// wakeup drop (counted in valleyd_stream_events_dropped_total) and
// catches up from the retained per-job log, never losing an event.
//
// # Deadlines and cancellation
//
// Sweeps are cancelable end to end. SimulateCtx derives the job's
// budget from its context: the deadline instant (set by the HTTP layer
// from ?deadline_ms / X-Deadline-Ms or Config.DefaultDeadline)
// survives into a job context that deliberately does NOT inherit the
// request's cancellation — a 202 job outlives its submitting handler.
// Three things kill a job early: an explicit cancel (DELETE
// /v1/jobs/{id} or Service.CancelJob), a streamed sweep's only client
// disconnecting, and the deadline expiring. Running cells observe the
// dead context at engine checkpoints (every 100k simulated events) and
// at kernel boundaries, so a canceled sweep frees its worker slots
// within a bounded interval rather than simulating to completion for
// nobody. The terminal event distinguishes the cause — canceled vs
// deadline_exceeded — via context.Cause, and cancellation always
// outranks individual cell errors. Canceled computations are never
// cached; a concurrent job that was coalesced onto a canceled cell's
// in-flight computation retries the cell under its own (live) context.
//
// # Admission control and degraded mode
//
// Accepting a sweep that cannot finish before its deadline wastes
// worker time twice — once computing cells that will be thrown away,
// once delaying everyone queued behind them. The admission gate
// (admission.go) prices each deadline-bearing sweep before acceptance:
// an EWMA cost model tracks measured seconds per cell, keyed by
// (config, scale) with a global fallback, and the sweep's uncached
// cells behind the current queue backlog must fit the deadline budget
// or the request is shed with HTTP 429 and a Retry-After hint
// (valleyd_jobs_shed_total counts these). Capacity rejections (job cap,
// shutdown) are 503s carrying the same Retry-After pricing. Sweeps
// without deadlines and sweeps arriving before any cost data exist are
// always admitted — the gate never sheds blind. Degraded mode keeps
// cached data flowing under overload: a sweep whose cells are all
// resident in the sim cache bypasses a saturated pool entirely and is
// served inline on the dispatcher goroutine
// (valleyd_sweeps_degraded_total).
//
// # Two-tier simulation cache
//
// Sweep cells are pure functions of (workload, scale, scheme, config,
// seed) and expensive to compute, so the simulation-result cache is
// cost-aware and (optionally) disk-backed. Eviction is
// cost-weighted: each cell carries its measured simulation seconds,
// and among the least-recently-used entries the cheapest-per-byte is
// evicted first, so one order-of-magnitude-more-expensive cell
// outlives a crowd of trivial ones. With Config.SpillDir set, evicted
// cells spill asynchronously to one checksummed file each and promote
// back into memory on demand; Close spills the resident working set,
// so a restarted valleyd answers repeat sweeps from cache (cells
// report "cached": true, valleyd_cache_tier_hits_total{tier="disk"}
// counts the disk serves). Spill damage of any kind — failed writes,
// torn files, corrupt entries — degrades to a recomputed miss, never
// an error or corrupt bytes; see internal/cache's package docs for the
// full two-tier contract.
//
// # Fault injection
//
// The failure paths above are exercised by a chaos suite driven
// through internal/fault: build-tagged injection points at the spill
// tier's writes and reads, the mmap opener and the sweep cells. In
// normal builds every hook is a compiled-out no-op; see internal/fault's
// package documentation for the seam contract and chaos_test.go for
// the suite.
//
// # Observability
//
// The service is instrumented end to end via internal/obs. Every
// request carries a trace id (client X-Trace-Id or generated), a
// request-scoped slog.Logger in its context, and a latency observation
// into valleyd_http_request_duration_seconds{path,code} — unknown paths
// collapse into path="other" so the label table stays bounded. Each
// sweep job records a ring-buffered span tree (accept → enqueue →
// per-cell queue wait → trace build → engine run → cache put), served
// by GET /v1/jobs/{id}/trace and correlated with the job's NDJSON
// events through the shared trace_id. Queue wait, per-cell simulation
// seconds and the streaming pipeline's per-stage times feed lock-free
// histograms; they, every counter and every sampled gauge are
// registered once on the obs.Registry that renders /metrics
// (metrics.go; tracing.go holds the trace endpoint). Panics anywhere in
// a sweep — worker task, cell, or inside the cache's compute closure
// (surfaced as a cache.PanicError) — are recovered, logged with their
// stack, counted in valleyd_worker_panics_total, and fail only the
// affected job.
package service
