package service

import (
	"strconv"
	"time"

	"valleymap/internal/obs"
)

// Metrics holds the service's instruments. Every family is registered
// once on reg, which renders /metrics in the Prometheus text format:
// counters and histograms here, gauges by the wiring code that owns the
// sampled structure (newProfileCache, newSimCache, newPool, New), so a
// gauge exists exactly when its source does. Counter and histogram
// updates are lock-free; only resolving a labelled child (requests and
// dispatch counts by label) takes the vec's short mutex.
type Metrics struct {
	reg *obs.Registry

	requests *obs.CounterVec
	httpDur  *obs.HistogramVec

	cacheHits, cacheMisses       *obs.Counter
	simCacheHits, simCacheMisses *obs.Counter

	jobsEnqueued, jobsDone, jobsFailed *obs.Counter
	// jobsCanceled counts jobs terminated by explicit cancellation,
	// client disconnect or an expired deadline; jobsShed counts sweeps
	// rejected up front by the cost-aware admission gate; degradedSweeps
	// counts fully-cached sweeps served inline past a saturated pool.
	jobsCanceled, jobsShed, degradedSweeps *obs.Counter

	cellsSimulated *obs.Counter
	sweepSeconds   *obs.Counter
	// streamEventsDropped counts slow-consumer wakeup drops on job
	// event streams (no event is lost, the consumer fell behind the
	// live tail); workerPanics counts panics recovered in sweep cells
	// and the worker-pool backstop.
	streamEventsDropped *obs.Counter
	workerPanics        *obs.Counter

	// Tiered sim-cache accounting: hits by serving tier, and the spill
	// tier's write-behind/janitor activity. spillErrors counts damage
	// events (failed writes, corrupt or unreadable entries) that
	// degraded to a miss.
	tierHitsMem, tierHitsDisk *obs.Counter
	spillWrites               *obs.Counter
	spillWriteDrops           *obs.Counter
	spillEvictions            *obs.Counter
	spillErrors               *obs.Counter

	// Latency histograms. stageCSV/Binary/Native are the pre-resolved
	// per-format children of stageDur, held so the per-batch streaming
	// hot path never touches the vec's mutex.
	queueWait   *obs.Histogram
	cellSeconds *obs.Histogram
	stageDur    *obs.HistogramVec

	stageCSV    stageSet
	stageBinary stageSet
	stageNative stageSet
}

// stageSet holds one ingest format's pre-resolved streaming-stage
// histograms (format label values: csv, binary — VTRC decode or mmap —
// and native for in-process trace generators/materialized apps).
type stageSet struct {
	decode, coalesce, accumulate *obs.Histogram
}

// NewMetrics registers every counter and histogram family. The service
// registers the sampled gauges as it wires the pool and caches.
func NewMetrics() *Metrics {
	m := &Metrics{reg: obs.NewRegistry()}
	counter := func(name, help string) *obs.Counter {
		c := obs.NewCounter(name, help)
		m.reg.Register(c)
		return c
	}

	m.requests = obs.NewCounterVec("valleyd_requests_total",
		"Completed HTTP requests by path and status code.", "path", "code")
	m.reg.Register(m.requests)

	m.cacheHits = counter("valleyd_profile_cache_hits_total",
		"Profile-cache hits (including joins on in-flight computations).")
	m.cacheMisses = counter("valleyd_profile_cache_misses_total", "Profile-cache misses.")
	m.gauge("valleyd_profile_cache_hit_rate", "Hit fraction over all cache lookups.", func() float64 {
		h, s := m.cacheHits.Value(), m.cacheMisses.Value()
		if h+s == 0 {
			return 0
		}
		return h / (h + s)
	})

	m.jobsEnqueued = counter("valleyd_jobs_enqueued_total", "Simulation jobs accepted.")
	m.jobsDone = counter("valleyd_jobs_done_total", "Simulation jobs completed successfully.")
	m.jobsFailed = counter("valleyd_jobs_failed_total", "Simulation jobs that ended in error.")
	m.jobsCanceled = counter("valleyd_jobs_canceled_total",
		"Simulation jobs terminated by cancellation, client disconnect or deadline expiry.")
	m.jobsShed = counter("valleyd_jobs_shed_total", "Sweeps rejected up front by cost-aware admission control.")
	m.degradedSweeps = counter("valleyd_sweeps_degraded_total",
		"Fully-cached sweeps served inline because the worker pool was saturated.")
	m.cellsSimulated = counter("valleyd_sim_cells_total",
		"Individual workload x scheme simulations executed (cache hits excluded).")
	m.simCacheHits = counter("valleyd_sim_cells_cache_hits_total",
		"Sweep cells served from the simulation-result cache (including joins on in-flight cells).")
	m.simCacheMisses = counter("valleyd_sim_cells_cache_misses_total", "Sweep cells that had to simulate.")
	m.sweepSeconds = counter("valleyd_sweep_seconds_total", "Wall time spent executing simulation sweeps.")
	m.streamEventsDropped = counter("valleyd_stream_events_dropped_total",
		"Slow-consumer wakeup drops on job event streams (lag accounting; no events are lost).")
	m.workerPanics = counter("valleyd_worker_panics_total", "Panics recovered in sweep cells and pool workers.")

	tierHits := obs.NewCounterVec("valleyd_cache_tier_hits_total",
		"Simulation-cache hits by serving tier (mem: resident or in-flight join; disk: promoted from the spill store).", "tier")
	m.reg.Register(tierHits)
	m.tierHitsMem = tierHits.With("mem")
	m.tierHitsDisk = tierHits.With("disk")
	m.spillWrites = counter("valleyd_cache_spill_writes_total",
		"Spill entry files landed by the write-behind goroutine.")
	m.spillWriteDrops = counter("valleyd_cache_spill_write_drops_total",
		"Pending spill writes discarded on write-behind queue overflow (lost warmth, never correctness).")
	m.spillEvictions = counter("valleyd_cache_spill_evictions_total",
		"Spill entries evicted by the byte-budget janitor (lowest cost-per-byte first).")
	m.spillErrors = counter("valleyd_cache_spill_errors_total",
		"Spill damage events (failed writes, corrupt or unreadable entries) degraded to cache misses.")

	m.httpDur = obs.NewHistogramVec("valleyd_http_request_duration_seconds",
		"HTTP request wall time by path and status code.", []string{"path", "code"}, nil)
	m.queueWait = obs.NewHistogram("valleyd_queue_wait_seconds",
		"Time sweep cells spend queued before a pool worker picks them up.", nil)
	m.cellSeconds = obs.NewHistogram("valleyd_cell_simulation_seconds",
		"Per-cell wall time inside a sweep (cached cells land in the lowest buckets).", nil)
	m.stageDur = obs.NewHistogramVec("valleyd_stream_stage_seconds",
		"Exclusive per-batch wall time of each streaming-pipeline stage, by trace container format.", []string{"stage", "format"}, nil)
	stages := func(format string) stageSet {
		return stageSet{
			decode:     m.stageDur.With("decode", format),
			coalesce:   m.stageDur.With("coalesce", format),
			accumulate: m.stageDur.With("accumulate", format),
		}
	}
	m.stageCSV = stages("csv")
	m.stageBinary = stages("binary")
	m.stageNative = stages("native")
	m.reg.Register(m.httpDur)
	m.reg.Register(m.queueWait)
	m.reg.Register(m.cellSeconds)
	m.reg.Register(m.stageDur)
	m.reg.Register(obs.RuntimeCollector{Prefix: "valleyd"})
	return m
}

// gauge registers a gauge family sampled from fn at render time.
func (m *Metrics) gauge(name, help string, fn func() float64) {
	m.reg.Register(obs.GaugeFunc{Name: name, Help: help, Fn: fn})
}

// knownPaths is the closed set of per-path label values: the routes
// Handler registers. Anything else — future unrouted paths, scanners —
// collapses to "other", so the request counter and the latency vec
// stay bounded however hostile the traffic.
var knownPaths = map[string]struct{}{
	"/v1/profile":     {},
	"/v1/advise":      {},
	"/v1/simulate":    {},
	"/v1/jobs":        {},
	"/v1/jobs/events": {},
	"/v1/jobs/trace":  {},
	"/healthz":        {},
	"/metrics":        {},
}

// observeRequest counts one completed HTTP request and records its wall
// time.
func (m *Metrics) observeRequest(path string, code int, d time.Duration) {
	if _, ok := knownPaths[path]; !ok {
		path = "other"
	}
	c := strconv.Itoa(code)
	m.requests.With(path, c).Inc()
	m.httpDur.With(path, c).ObserveDuration(d)
}

// CacheCounts returns the profile cache's raw (hits, misses) pair.
func (m *Metrics) CacheCounts() (hits, misses int64) {
	return int64(m.cacheHits.Value()), int64(m.cacheMisses.Value())
}

// SimCacheCounts returns the raw (hits, misses) pair for the
// simulation-result cache.
func (m *Metrics) SimCacheCounts() (hits, misses int64) {
	return int64(m.simCacheHits.Value()), int64(m.simCacheMisses.Value())
}

// TierHits returns sim-cache hits split by serving tier.
func (m *Metrics) TierHits() (mem, disk int64) {
	return int64(m.tierHitsMem.Value()), int64(m.tierHitsDisk.Value())
}

// SpillCounts returns the spill tier's (writes landed, writes dropped
// on queue overflow, janitor evictions) counters.
func (m *Metrics) SpillCounts() (writes, drops, evictions int64) {
	return int64(m.spillWrites.Value()), int64(m.spillWriteDrops.Value()), int64(m.spillEvictions.Value())
}
