package service

// The cell-execution core and the dispatcher. executeCell is the heart
// of a sweep: one (workload, scale, scheme, config, seed) cell through
// the two-tier cache, the pooled engine and the admission cost model,
// identical whether the cell was submitted by a sweep or by an embedder
// (ExecuteCell), and cellTask queues a sweep's cell on the pool. Above
// them, dispatchLocal runs every cell of a sweep on the in-process pool.

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"valleymap/internal/cache"
	"valleymap/internal/experiments"
	"valleymap/internal/fault"
	"valleymap/internal/gpusim"
	"valleymap/internal/mapping"
	"valleymap/internal/obs"
	"valleymap/internal/workload"
)

// errClosed is the sweep-visible form of a pool refusing work during
// shutdown.
var errClosed = errors.New("service shutting down")

// cellExec is one resolved cell (run coordinates, workload, scheme,
// sim-cache key) plus its shared trace slot and observability context.
// jobID may be empty, tr nil and span zero (the obs API is nil-safe):
// that is how ExecuteCell runs the core without a job or span trace.
type cellExec struct {
	rc    *runCoords
	sp    workload.Spec
	sc    mapping.Scheme
	key   string
	sa    *sharedApp
	jobID string
	tr    *obs.Trace
	span  obs.SpanRef // the cell span child stages nest under
}

// executeCell runs one sweep cell through the cache-backed execution
// core: chaos seams, shared trace build, mapper, pooled engine run,
// GetOrCompute with in-flight coalescing (retried when a joined
// computation dies with someone else's context error), the admission
// cost model's observation of each fresh cell, and the hit/miss
// metrics. The returned CellResult is complete except for span
// annotations, which the caller owns. Context errors come back
// unwrapped; a panic inside the compute closure surfaces as a
// cache.PanicError, already logged and counted.
func (s *Service) executeCell(ctx context.Context, ce cellExec) (CellResult, error) {
	cellStart := time.Now()
	// putSpan covers the cache insert after the compute closure
	// returns; it stays the inert zero SpanRef on cache hits.
	var putSpan obs.SpanRef
	compute := func() (experiments.ResultJSON, error) {
		// Chaos seams: a wedged worker stalls here; an induced
		// cell panic exercises the PanicError recovery path.
		fault.Sleep(fault.WorkerDelay)
		if fault.Fail(fault.CellPanic) {
			panic("injected cell panic")
		}
		simStart := time.Now()
		build := ce.tr.Start(ce.span.ID(), "trace_build")
		app := ce.sa.get(ce.sp, ce.rc.scale)
		build.End()
		m := mapping.MustNew(ce.sc, ce.rc.cfg.Layout, mapping.Options{Seed: ce.rc.seed})
		r := runnerPool.Get().(*gpusim.Runner)
		eng := ce.tr.Start(ce.span.ID(), "engine_run")
		var setup, kernels, collect time.Duration
		r.SetStageObserver(func(stage string, d time.Duration) {
			switch stage {
			case gpusim.StageSetup:
				setup = d
			case gpusim.StageKernels:
				kernels = d
			case gpusim.StageCollect:
				collect = d
			}
		})
		// The engine polls ctx between bounded event batches,
		// so an abandoned or expired sweep frees this worker
		// slot mid-cell within the checkpoint interval.
		res, runErr := r.RunCtx(ctx, app, m, ce.rc.cfg)
		r.SetStageObserver(nil)
		eng.Annotate(
			obs.Attr{Key: "setup_us", Value: strconv.FormatInt(setup.Microseconds(), 10)},
			obs.Attr{Key: "kernels_us", Value: strconv.FormatInt(kernels.Microseconds(), 10)},
			obs.Attr{Key: "collect_us", Value: strconv.FormatInt(collect.Microseconds(), 10)},
		)
		eng.End()
		runnerPool.Put(r)
		if runErr != nil {
			return experiments.ResultJSON{}, runErr
		}
		// The shared build must come back untouched, or it
		// would poison this workload's remaining cells and
		// every later sweep holding the same pointer.
		if got := ce.sa.app.Requests(); got != ce.sa.reqs {
			return experiments.ResultJSON{}, fmt.Errorf("simulating %s under %s mutated the shared trace: %d requests became %d", ce.sp.Abbr, ce.sc, ce.sa.reqs, got)
		}
		// Only a fresh simulation feeds the admission cost model: a
		// cache hit measures the cache, not the simulator.
		s.costs.observe(ce.rc.cfgName, ce.rc.scaleName, time.Since(simStart).Seconds())
		putSpan = ce.tr.Start(ce.span.ID(), "cache_put")
		return experiments.FlattenResult(res), nil
	}
	var (
		cell experiments.ResultJSON
		hit  bool
		err  error
	)
	for attempt := 0; ; attempt++ {
		cell, hit, err = s.simCache.GetOrCompute(ce.key, compute)
		// In-flight coalescing wrinkle: joining another sweep's
		// computation means inheriting its context error if that
		// sweep is canceled. While our own job is still alive,
		// retry — canceled computations are never cached, so the
		// retry computes fresh under our live context.
		if err == nil || ctx.Err() != nil || attempt >= 2 ||
			!(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			break
		}
	}
	putSpan.End()
	if err != nil {
		// A panic inside the compute closure surfaces as a
		// cache.PanicError (the cache recovers it to keep the
		// in-flight coalescing sane); account for it as a crash
		// with the stack from the panic site. Context errors are the
		// caller's to classify quietly.
		var pe *cache.PanicError
		if errors.As(err, &pe) {
			s.cellPanic(ce, pe.Value, pe.Stack)
		}
		return CellResult{}, err
	}
	// A spill-tier hit is a hit: the cell came from the cache,
	// not the simulator, whichever tier held it.
	done := CellResult{
		Workload:   ce.sp.Abbr,
		Scheme:     string(ce.sc),
		Seconds:    time.Since(cellStart).Seconds(),
		Cached:     hit,
		ResultJSON: cell,
	}
	s.metrics.cellSeconds.Observe(done.Seconds)
	if !hit {
		s.metrics.cellsSimulated.Inc()
	}
	return done, nil
}

// cellPanic counts and logs a panic recovered while running ce, with
// the stack from the panic site.
func (s *Service) cellPanic(ce cellExec, v any, stack []byte) {
	s.metrics.workerPanics.Inc()
	s.log.Error("sweep cell panic recovered",
		"job_id", ce.jobID,
		"trace_id", ce.tr.ID(),
		"workload", ce.sp.Abbr,
		"scheme", string(ce.sc),
		"panic", fmt.Sprint(v),
		"stack", string(stack),
	)
}

// CellSpec names one simulation cell in transport form, the public
// mirror of a sweep grid coordinate: workload abbreviation, scheme
// name, scale, config and seed (0 = 1), all in the string vocabularies
// the HTTP API uses.
type CellSpec struct {
	Workload string `json:"workload"`
	Scheme   string `json:"scheme"`
	Scale    string `json:"scale,omitempty"`
	Config   string `json:"config,omitempty"`
	Seed     int64  `json:"seed,omitempty"`
}

// ExecuteCell resolves and runs one cell through the execution core on
// the calling goroutine: cache first (either tier), then a fresh
// simulation. It is the single-cell entry point for embedders;
// sweep-relative aggregation (speedups) is the sweep's business, not
// the core's.
func (s *Service) ExecuteCell(ctx context.Context, spec CellSpec) (CellResult, error) {
	rc, err := resolveCoords(spec.Config, spec.Scale, spec.Seed)
	if err != nil {
		return CellResult{}, err
	}
	ce, err := rc.resolveCell(spec.Workload, spec.Scheme)
	if err != nil {
		return CellResult{}, err
	}
	ce.sa = &sharedApp{}
	return s.executeCell(ctx, ce)
}

// resolveCell validates a cell's workload and scheme names against their
// vocabularies and binds the cell to rc; the caller attaches its shared
// trace slot.
func (rc *runCoords) resolveCell(abbr, scheme string) (cellExec, error) {
	sp, ok := workload.ByAbbr(abbr)
	if !ok {
		return cellExec{}, notFoundf("unknown workload %q (want one of %v)", abbr, workload.Abbrs())
	}
	sc, err := mapping.ParseScheme(scheme)
	if err != nil {
		return cellExec{}, badRequestf("%v", err)
	}
	return rc.cell(sp, sc), nil
}

// cellTask wraps cell i for pool submission: queue-wait accounting, the
// cell span with its queue_wait child, the panic fence and the outcome
// classification. Every sweep cell is queued through it, and the task
// calls report exactly once, with the finished cell or the error that
// stopped it.
func (s *Service) cellTask(ctx context.Context, i int, ce cellExec, report func(i int, done CellResult, err error)) func() {
	submitAt := time.Now()
	return func() {
		if err := ctx.Err(); err != nil {
			// Canceled while queued: free the worker slot without
			// paying for the cell.
			report(i, CellResult{}, err)
			return
		}
		cellStart := time.Now()
		s.metrics.queueWait.ObserveDuration(cellStart.Sub(submitAt))
		cellSpan := ce.tr.StartAt(ce.span.ID(), "cell", submitAt,
			obs.Attr{Key: "workload", Value: ce.sp.Abbr},
			obs.Attr{Key: "scheme", Value: string(ce.sc)},
		)
		qw := ce.tr.StartAt(cellSpan.ID(), "queue_wait", submitAt)
		qw.EndAt(cellStart)
		defer func() {
			if r := recover(); r != nil {
				s.cellPanic(ce, r, debug.Stack())
				cellSpan.Annotate(obs.Attr{Key: "panic", Value: fmt.Sprint(r)})
				cellSpan.End()
				report(i, CellResult{}, fmt.Errorf("simulating %s under %s: %v", ce.sp.Abbr, ce.sc, r))
			}
		}()
		ce.span = cellSpan
		done, err := s.executeCell(ctx, ce)
		switch {
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			// Our own cancellation (or an unlucky triple join on other
			// dying sweeps): record it quietly; the dispatcher publishes
			// the terminal event.
			cellSpan.Annotate(obs.Attr{Key: "canceled", Value: "true"})
		case err != nil:
			var pe *cache.PanicError
			if errors.As(err, &pe) {
				cellSpan.Annotate(obs.Attr{Key: "panic", Value: fmt.Sprint(pe.Value)})
			}
			cellSpan.Annotate(obs.Attr{Key: "error", Value: err.Error()})
		default:
			cellSpan.Annotate(obs.Attr{Key: "cached", Value: strconv.FormatBool(done.Cached)})
		}
		cellSpan.End()
		report(i, done, err)
	}
}

// dispatchLocal runs every cell of a sweep's plan on the in-process
// worker pool (or inline on the dispatcher goroutine in degraded mode)
// and blocks until every submitted cell has reported.
func (s *Service) dispatchLocal(ctx context.Context, sw *sweep) {
	var wg sync.WaitGroup
	report := func(i int, done CellResult, err error) {
		defer wg.Done()
		if err != nil {
			sw.fail(err)
			return
		}
		sw.deliver(i, done)
	}
	for i := range sw.plan.cells {
		if ctx.Err() != nil {
			// Canceled mid-fan-out: stop submitting. Cells already
			// queued or running drain through their own ctx checks.
			break
		}
		wg.Add(1)
		task := s.cellTask(ctx, i, sw.cell(i), report)
		if sw.degraded {
			// Degraded mode: the sweep is fully cached and the pool is
			// saturated, so cells run inline on this dispatcher
			// goroutine — cached results stay servable under overload
			// without queueing behind real simulation work.
			task()
			continue
		}
		if !s.pool.submit(task) {
			report(i, CellResult{}, errClosed)
			// The pool only refuses when it is closed; later submits
			// would just fail the same way, so stop fanning out.
			break
		}
	}
	wg.Wait()
}
