package service

// The cell-execution core and the dispatch layer. executeCell is the
// transport-agnostic heart of a sweep: one (workload, scale, scheme,
// config, seed) cell through the two-tier cache, the pooled engine and
// the admission cost model, identical whether the cell was submitted
// by a local sweep, a coordinator's remote batch (cluster_http.go) or
// an embedder (ExecuteCell). Above it sit two dispatchers sharing the
// cellTask shape: dispatchLocal fans cells over the in-process worker
// pool, and dispatchCluster (cluster_dispatch.go) shards them across
// peer valleyd workers by cache-affinity rendezvous hashing.

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

// cellExec is one resolved cell plus the observability context it runs
// under. tr may be nil and span zero (the obs API is nil-safe), which
// is how the worker-side /v1/cells path runs the core without a span
// trace of its own.
type cellExec struct {
	sp        workload.Spec
	sc        mapping.Scheme
	sa        *sharedApp
	scale     workload.Scale
	scaleName string
	cfg       gpusim.Config
	cfgName   string
	seed      int64
	tr        *obs.Trace
	span      obs.SpanRef // the cell span child stages nest under
}

// executeCell runs one sweep cell through the cache-backed execution
// core: chaos seams, shared trace build, mapper, pooled engine run,
// GetOrCompute with in-flight coalescing (retried when a joined
// computation dies with someone else's context error), and the
// hit/miss metrics and admission-cost accounting. The returned
// CellResult is complete except for span annotations, which the caller
// owns. Context errors come back unwrapped; a panic inside the compute
// closure surfaces as a cache.PanicError, already logged and counted.
func (s *Service) executeCell(ctx context.Context, jobID string, ce cellExec) (CellResult, error) {
	cellStart := time.Now()
	// putSpan covers the cache insert after the compute closure
	// returns; it stays the inert zero SpanRef on cache hits.
	var putSpan obs.SpanRef
	compute := func() (*simCell, error) {
		// Chaos seams: a wedged worker stalls here; an induced
		// cell panic exercises the PanicError recovery path.
		fault.Sleep(fault.WorkerDelay)
		if fault.Fail(fault.CellPanic) {
			panic("injected cell panic")
		}
		simStart := time.Now()
		build := ce.tr.Start(ce.span.ID(), "trace_build")
		app := ce.sa.get(ce.sp, ce.scale)
		build.End()
		m := mapping.MustNew(ce.sc, ce.cfg.Layout, mapping.Options{Seed: ce.seed})
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
		res, runErr := r.RunCtx(ctx, app, m, ce.cfg)
		r.SetStageObserver(nil)
		eng.Annotate(
			obs.Attr{Key: "setup_us", Value: strconv.FormatInt(setup.Microseconds(), 10)},
			obs.Attr{Key: "kernels_us", Value: strconv.FormatInt(kernels.Microseconds(), 10)},
			obs.Attr{Key: "collect_us", Value: strconv.FormatInt(collect.Microseconds(), 10)},
		)
		eng.End()
		runnerPool.Put(r)
		if runErr != nil {
			return nil, runErr
		}
		// The shared build must come back untouched, or it
		// would poison this workload's remaining cells and
		// every later sweep holding the same pointer.
		if got := ce.sa.app.Requests(); got != ce.sa.reqs {
			return nil, fmt.Errorf("simulating %s under %s mutated the shared trace: %d requests became %d", ce.sp.Abbr, ce.sc, ce.sa.reqs, got)
		}
		putSpan = ce.tr.Start(ce.span.ID(), "cache_put")
		return &simCell{Res: experiments.FlattenResult(res), Seconds: time.Since(simStart).Seconds()}, nil
	}
	key := simCellKey(ce.sp.Abbr, ce.scaleName, ce.sc, ce.cfgName, ce.seed)
	var (
		cell *simCell
		tier cache.Tier
		err  error
	)
	for attempt := 0; ; attempt++ {
		cell, tier, err = s.simCache.GetOrCompute(key, compute)
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
			s.metrics.workerPanics.Inc()
			s.log.Error("sweep cell panic recovered",
				"job_id", jobID,
				"trace_id", ce.tr.ID(),
				"workload", ce.sp.Abbr,
				"scheme", string(ce.sc),
				"panic", fmt.Sprint(pe.Value),
				"stack", string(pe.Stack),
			)
		}
		return CellResult{}, err
	}
	// A spill-tier hit is a hit: the cell came from the cache,
	// not the simulator, whichever tier held it.
	hit := tier != cache.TierMiss
	done := CellResult{
		Workload:   ce.sp.Abbr,
		Scheme:     string(ce.sc),
		Seconds:    time.Since(cellStart).Seconds(),
		Cached:     hit,
		ResultJSON: cell.Res,
	}
	s.metrics.cellSeconds.Observe(done.Seconds)
	if !hit {
		s.metrics.cellsSimulated.Inc()
		// Feed the admission cost model with the measured
		// simulation seconds (cache hits measure the cache,
		// not the simulator, and are skipped).
		s.costs.observe(ce.cfgName, ce.scaleName, cell.Seconds)
	}
	return done, nil
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
// simulation. It is the single-cell entry point embedders and the
// worker-side batch endpoint build on; sweep-relative aggregation
// (speedups) is the dispatcher's business, not the core's.
func (s *Service) ExecuteCell(ctx context.Context, spec CellSpec) (CellResult, error) {
	ce, err := s.resolveCell(spec, &sharedApp{})
	if err != nil {
		return CellResult{}, err
	}
	return s.executeCell(ctx, "", ce)
}

// resolveCell validates spec against the workload/scheme/config/scale
// vocabularies and binds it to sa's shared trace slot.
func (s *Service) resolveCell(spec CellSpec, sa *sharedApp) (cellExec, error) {
	sp, ok := workload.ByAbbr(spec.Workload)
	if !ok {
		return cellExec{}, notFoundf("unknown workload %q (want one of %v)", spec.Workload, workload.Abbrs())
	}
	sc, err := mapping.ParseScheme(spec.Scheme)
	if err != nil {
		return cellExec{}, badRequestf("unknown scheme %q (want one of %v)", spec.Scheme, mapping.Schemes())
	}
	cfg, cfgName, err := parseSimConfig(spec.Config)
	if err != nil {
		return cellExec{}, err
	}
	scale, scaleName, err := parseScale(spec.Scale)
	if err != nil {
		return cellExec{}, err
	}
	seed := spec.Seed
	if seed == 0 {
		seed = 1
	}
	return cellExec{
		sp: sp, sc: sc, sa: sa,
		scale: scale, scaleName: scaleName,
		cfg: cfg, cfgName: cfgName,
		seed: seed,
	}, nil
}

// cellTask wraps one cell for pool submission: queue-wait accounting,
// the cell span with its queue_wait child, a panic backstop, and the
// deliver/fail routing of the outcome. Both dispatchers build their
// local tasks through it so a cell behaves identically whether it ran
// in a plain sweep or as a cluster fallback.
func (s *Service) cellTask(ctx context.Context, jobID string, wi, si int, ce cellExec, submitAt time.Time, wg *sync.WaitGroup, deliver func(wi, si int, done CellResult), fail func(error)) func() {
	return func() {
		defer wg.Done()
		if ctx.Err() != nil {
			// Canceled while queued: free the worker slot without
			// paying for the cell.
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
				s.metrics.workerPanics.Inc()
				s.log.Error("sweep cell panic recovered",
					"job_id", jobID,
					"trace_id", ce.tr.ID(),
					"workload", ce.sp.Abbr,
					"scheme", string(ce.sc),
					"panic", fmt.Sprint(r),
					"stack", string(debug.Stack()),
				)
				cellSpan.Annotate(obs.Attr{Key: "panic", Value: fmt.Sprint(r)})
				cellSpan.End()
				fail(fmt.Errorf("simulating %s under %s: %v", ce.sp.Abbr, ce.sc, r))
			}
		}()
		exec := ce
		exec.span = cellSpan
		done, err := s.executeCell(ctx, jobID, exec)
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// Our own cancellation (or an unlucky triple join on
			// other dying sweeps): record it quietly; the dispatcher
			// publishes the terminal event.
			fail(err)
			cellSpan.Annotate(obs.Attr{Key: "canceled", Value: "true"})
			cellSpan.End()
			return
		}
		if err != nil {
			var pe *cache.PanicError
			if errors.As(err, &pe) {
				cellSpan.Annotate(obs.Attr{Key: "panic", Value: fmt.Sprint(pe.Value)})
			}
			fail(err)
			cellSpan.Annotate(obs.Attr{Key: "error", Value: err.Error()})
			cellSpan.End()
			return
		}
		cellSpan.Annotate(obs.Attr{Key: "cached", Value: strconv.FormatBool(done.Cached)})
		cellSpan.End()
		deliver(wi, si, done)
	}
}

// dispatchLocal fans a sweep's cells over the in-process worker pool
// (or inline on the dispatcher goroutine in degraded mode) and blocks
// until every submitted cell has finished. It is the single-node
// execution path and the cluster dispatcher's last-resort fallback.
func (s *Service) dispatchLocal(ctx context.Context, jobID string, specs []workload.Spec, schemes []mapping.Scheme, cfg gpusim.Config, scale workload.Scale, seed int64, result *SimulateResult, tr *obs.Trace, root obs.SpanRef, apps []sharedApp, deliver func(wi, si int, done CellResult), fail func(error), degraded bool) {
	var wg sync.WaitGroup
submit:
	for wi := range specs {
		for si := range schemes {
			if ctx.Err() != nil {
				// Canceled mid-fan-out: stop submitting. Cells already
				// queued or running drain through their own ctx checks.
				break submit
			}
			ce := cellExec{
				sp: specs[wi], sc: schemes[si], sa: &apps[wi],
				scale: scale, scaleName: result.Scale,
				cfg: cfg, cfgName: result.Config,
				seed: seed, tr: tr, span: root,
			}
			wg.Add(1)
			task := s.cellTask(ctx, jobID, wi, si, ce, time.Now(), &wg, deliver, fail)
			if degraded {
				// Degraded mode: the sweep is fully cached and the pool is
				// saturated, so cells run inline on this dispatcher
				// goroutine — cached results stay servable under overload
				// without queueing behind real simulation work.
				task()
				continue
			}
			if !s.pool.submit(task) {
				wg.Done()
				fail(errClosed)
				// The pool only refuses when it is closed; later submits
				// would just fail the same way, so stop fanning out.
				break submit
			}
		}
	}
	wg.Wait()
}
