// Command valleyd is the valleymap daemon: a long-running HTTP service
// that profiles address-bit entropy, recommends BIM address mappings and
// runs scheme × workload simulation sweeps over a bounded worker pool,
// with content-addressed LRU caches in front of the profiler and the
// simulator.
//
// Usage:
//
//	valleyd [-addr :8080] [-workers N] [-queue 256] [-cache 512] [-sim-cache 256]
//	        [-max-trace-bytes N] [-trace-dir DIR] [-spill-dir DIR] [-spill-max-bytes N]
//	        [-default-deadline 0] [-log-level info] [-log-format text] [-debug-addr :6060]
//
// Endpoints:
//
//	POST /v1/profile          {"workload":"MT","scale":"tiny"}  or a text/csv trace body
//	POST /v1/advise           {"workload":"MT"}                 recommended PAE/FAE/ALL BIM
//	POST /v1/simulate         {"set":"valley","scale":"tiny"}   returns 202 + job id
//	POST /v1/simulate?stream=1                                  streams NDJSON cell events live
//	GET  /v1/jobs/{id}                                          poll the sweep
//	DELETE /v1/jobs/{id}                                        cancel a running sweep
//	GET  /v1/jobs/{id}/events                                   stream job events (?from=seq resumes)
//	GET  /v1/jobs/{id}/trace                                    span tree of the sweep (accept → enqueue → cells)
//	GET  /healthz
//	GET  /metrics
//
// Trace uploads stream through the profiling pipeline at O(window × bits)
// memory per request, so the body cap (413 limit) defaults to 256 MiB —
// it bounds bandwidth, not memory — and can be raised further with
// -max-trace-bytes. Bodies may be CSV (text/csv, the default) or the
// VTRC binary container (Content-Type: application/x-valley-trace, see
// cmd/tracepack); both formats hash to the same canonical identity, so
// they share cache entries. With -trace-dir, requests can instead name
// local files ({"trace_file":"x.vtrc"}); binary files are then profiled
// zero-copy via mmap with no HTTP body at all.
//
// With -spill-dir, the simulation-result cache is two-tier: cells
// evicted from memory spill to checksummed per-entry files (written
// asynchronously, bounded by -spill-max-bytes) and are promoted back on
// demand, so a restarted daemon answers repeat sweeps from cache (cells
// report "cached": true) instead of re-simulating, and warm capacity is
// bounded by disk, not RAM.
//
// Deadlines: sweep requests may carry ?deadline_ms= or an X-Deadline-Ms
// header; -default-deadline bounds sweeps that carry neither (0 keeps
// them unbounded). Sweeps that overrun are canceled mid-cell and report
// a deadline_exceeded terminal event; sweeps that the admission gate
// predicts cannot finish in time are shed up front with 429 +
// Retry-After.
//
// Observability: every request gets a trace_id (client-supplied
// X-Trace-Id or generated) carried by its logs, its job's span tree and
// every NDJSON event. -log-level and -log-format select the slog
// threshold and text|json encoding; -v remains a shorthand for
// -log-level debug. -debug-addr starts a second listener exposing
// net/http/pprof under /debug/pprof/ — opt-in and separate from the
// service address so profiling is never exposed on the public port.
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"valleymap"
	"valleymap/internal/fault"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "worker-pool queue depth (0 = 256)")
	cacheEntries := flag.Int("cache", 0, "profile-cache entries (0 = 512)")
	simCacheEntries := flag.Int("sim-cache", 0, "simulation-result cache entries (0 = 256)")
	maxTraceBytes := flag.Int64("max-trace-bytes", 0, "uploaded trace body cap in bytes (0 = 256 MiB; uploads stream, so this bounds bandwidth, not memory)")
	traceDir := flag.String("trace-dir", "", "directory of local trace files; enables {\"trace_file\":\"name\"} profile requests that mmap VTRC binaries zero-copy instead of uploading the body (empty = disabled)")
	spillDir := flag.String("spill-dir", "", "simulation-cache spill directory (empty = memory-only); evicted cells spill to checksummed per-entry files and are promoted back on demand, so the cache survives restarts and grows past RAM")
	spillMaxBytes := flag.Int64("spill-max-bytes", 0, "byte budget for the spill directory, enforced by evicting the lowest cost-per-byte entries (0 = 1 GiB; negative = unbounded)")
	defaultDeadline := flag.Duration("default-deadline", 0, "deadline applied to sweep requests that carry no ?deadline_ms or X-Deadline-Ms budget (0 = unbounded)")
	logLevel := flag.String("log-level", "info", "log threshold: debug, info, warn or error")
	logFormat := flag.String("log-format", "text", "log encoding: text or json")
	debugAddr := flag.String("debug-addr", "", "optional second listen address serving net/http/pprof under /debug/pprof/ (empty = disabled)")
	verbose := flag.Bool("v", false, "debug logging (alias for -log-level debug)")
	flag.Parse()

	if *verbose {
		*logLevel = "debug"
	}
	logger, err := valleymap.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		slog.Error("bad logging flags", "error", err)
		os.Exit(2)
	}
	slog.SetDefault(logger)

	// Chaos (-tags faultinject) builds announce themselves: injection
	// hooks are live machinery that must never reach production, and
	// the logged marker doubles as the string CI greps binaries for.
	if fault.Enabled {
		slog.Warn("fault-injection build: chaos hooks are compiled in", "marker", fault.Marker)
	}

	svc := valleymap.NewService(valleymap.ServiceConfig{
		Workers:         *workers,
		QueueDepth:      *queue,
		CacheEntries:    *cacheEntries,
		SimCacheEntries: *simCacheEntries,
		MaxTraceBytes:   *maxTraceBytes,
		TraceDir:        *traceDir,
		SpillDir:        *spillDir,
		SpillMaxBytes:   *spillMaxBytes,
		DefaultDeadline: *defaultDeadline,
		Logger:          logger,
	})
	defer svc.Close()

	srv := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(), // logs each request at debug level via slog
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		slog.Info("valleyd listening", "addr", *addr)
		errc <- srv.ListenAndServe()
	}()

	// The pprof listener is its own server on its own mux: the default
	// ServeMux (which net/http/pprof registers on by import) is never
	// exposed, and a failed debug listener is fatal the same way the
	// service listener is — silently losing profiling is worse than
	// failing fast at startup.
	if *debugAddr != "" {
		dbg := http.NewServeMux()
		dbg.HandleFunc("/debug/pprof/", pprof.Index)
		dbg.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dbg.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dbg.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dbg.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dsrv := &http.Server{Addr: *debugAddr, Handler: dbg, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			slog.Info("pprof listening", "addr", *debugAddr)
			errc <- dsrv.ListenAndServe()
		}()
		defer dsrv.Close()
	}

	select {
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			slog.Error("server failed", "error", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		slog.Info("shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			slog.Error("shutdown failed", "error", err)
			os.Exit(1)
		}
	}
	slog.Info("bye")
}
