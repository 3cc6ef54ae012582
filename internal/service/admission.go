package service

// Cost-aware admission control. The sim cache's measured per-cell
// seconds feed an EWMA cost model keyed by (config, scale); before a
// sweep is accepted, the model prices the sweep's uncached cells plus
// the pool's current backlog against the request's deadline. Sweeps
// that cannot finish in time are shed up front with a 429 and a
// Retry-After hint — cheaper for everyone than accepting work that is
// guaranteed to be canceled half-done — and fully-cached sweeps bypass
// the saturated pool entirely (degraded mode), so cached results stay
// servable under overload.

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// costAlpha is the EWMA smoothing factor for observed cell seconds:
// heavy enough that a config change re-converges within a few sweeps,
// light enough that one outlier cell does not whipsaw admission.
const costAlpha = 0.3

// costModel tracks measured simulation cost per (config, scale) class
// plus a global mean, all as EWMAs of wall seconds per cell.
type costModel struct {
	mu     sync.Mutex
	byKey  map[string]float64
	global float64
	n      int64
}

func newCostModel() *costModel {
	return &costModel{byKey: map[string]float64{}}
}

func costKey(cfgName, scaleName string) string { return cfgName + "|" + scaleName }

// observe folds one freshly simulated cell's wall seconds into the
// model. Cached cells are not observed: their near-zero times measure
// the cache, not the simulator.
func (c *costModel) observe(cfgName, scaleName string, secs float64) {
	if secs <= 0 || math.IsNaN(secs) || math.IsInf(secs, 0) {
		return
	}
	key := costKey(cfgName, scaleName)
	c.mu.Lock()
	if prev, ok := c.byKey[key]; ok {
		c.byKey[key] = prev + costAlpha*(secs-prev)
	} else {
		c.byKey[key] = secs
	}
	if c.n == 0 {
		c.global = secs
	} else {
		c.global += costAlpha * (secs - c.global)
	}
	c.n++
	c.mu.Unlock()
}

// estimate prices one cell of the given class in seconds, falling back
// to the global mean. ok is false when the model has no data at all.
func (c *costModel) estimate(cfgName, scaleName string) (secs float64, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, found := c.byKey[costKey(cfgName, scaleName)]; found {
		return v, true
	}
	if c.n > 0 {
		return c.global, true
	}
	return 0, false
}

// mean returns the global EWMA cell cost; ok is false with no data.
func (c *costModel) mean() (float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.global, c.n > 0
}

// tooBusyError marks deadline-infeasible sweeps shed by admission
// control (HTTP 429 + Retry-After).
type tooBusyError struct {
	msg        string
	retryAfter int
}

func (e tooBusyError) Error() string { return e.msg }

func (e tooBusyError) retryAfterSeconds() int { return e.retryAfter }

// retryHinter lets writeError surface a Retry-After header from any
// capacity error that can price the current backlog.
type retryHinter interface{ retryAfterSeconds() int }

// clampRetryAfter keeps hints useful: at least 1s (0 would tell clients
// to hammer), at most 10 min (beyond that the estimate is noise).
func clampRetryAfter(secs float64) int {
	n := int(math.Ceil(secs))
	if n < 1 {
		n = 1
	}
	if n > 600 {
		n = 600
	}
	return n
}

// retryAfterHint prices draining the current pool backlog in seconds:
// queued tasks × mean cell seconds / workers. With no cost data yet it
// returns the 1s floor.
func (s *Service) retryAfterHint() int {
	mean, ok := s.costs.mean()
	if !ok {
		return 1
	}
	return clampRetryAfter(float64(s.pool.backlog()) * mean / float64(s.cfg.Workers))
}

// poolSaturated reports that new un-cached work would queue behind a
// meaningful backlog: every worker is busy and the queue is at least
// half full.
func (s *Service) poolSaturated() bool {
	return s.pool.busyWorkers() >= s.cfg.Workers && 2*s.pool.backlog() >= s.pool.capacity()
}

// admitSweep is the admission gate. It returns degraded=true when the
// sweep should bypass the saturated pool and run inline off the cache,
// or a tooBusyError when the sweep cannot finish before its deadline.
// Sweeps without a deadline are always admitted — they can wait
// arbitrarily long, and the pool's bounded queue still backpressures
// them.
func (s *Service) admitSweep(deadline *time.Time, p sweepPlan) (degraded bool, err error) {
	// Cells resident in either cache tier are free. Contains touches
	// neither recency, promotion nor the disk, so the probe does not
	// distort eviction order. A spilled cell costs one file read, not
	// simulation seconds, so a fully-spilled repeat sweep prices near zero
	// and must not be shed with a 429 on backlog math that assumes it
	// will simulate.
	uncached := 0
	for i := range p.cells {
		if !s.simCache.Contains(p.cells[i].key) {
			uncached++
		}
	}
	if uncached == 0 && s.poolSaturated() {
		// Fully answerable from the cache: serve it inline rather than
		// queueing no-op tasks behind saturated workers.
		return true, nil
	}
	if deadline == nil || uncached == 0 {
		return false, nil
	}
	est, ok := s.costs.estimate(p.rc.cfgName, p.rc.scaleName)
	if !ok {
		// No cost data yet: never shed blind. The deadline still
		// protects the client — the sweep will be canceled mid-flight if
		// it overruns.
		return false, nil
	}
	// FIFO queue model: the sweep's uncached cells drain behind the
	// current backlog across all workers.
	backlogSecs := float64(s.pool.backlog()) * s.meanOr(est) / float64(s.cfg.Workers)
	sweepSecs := float64(uncached) * est / float64(s.cfg.Workers)
	budget := time.Until(*deadline).Seconds()
	if backlogSecs+sweepSecs > budget {
		s.metrics.jobsShed.Inc()
		return false, tooBusyError{
			msg: fmt.Sprintf("sweep shed: estimated %.1fs of work (%d uncached cells behind %d queued tasks) exceeds the %.1fs deadline budget",
				backlogSecs+sweepSecs, uncached, s.pool.backlog(), budget),
			retryAfter: clampRetryAfter(backlogSecs),
		}
	}
	return false, nil
}

// meanOr returns the global mean cell cost, or fallback without data.
func (s *Service) meanOr(fallback float64) float64 {
	if m, ok := s.costs.mean(); ok {
		return m
	}
	return fallback
}
