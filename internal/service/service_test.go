package service

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"valleymap/internal/experiments"
)

func TestProfileCacheLRUEviction(t *testing.T) {
	c := newProfileCache(2, NewMetrics())
	mk := func(key string) *ProfileResult { return &ProfileResult{CacheKey: key} }
	for _, k := range []string{"a", "b", "c"} {
		k := k
		if _, hit, err := c.GetOrCompute(k, func() (*ProfileResult, error) { return mk(k), nil }); err != nil || hit {
			t.Fatalf("first compute of %q: hit=%v err=%v", k, hit, err)
		}
	}
	// "a" was evicted by "c"; "b" and "c" are resident.
	if c.Len() != 2 {
		t.Fatalf("cache len = %d, want 2", c.Len())
	}
	if _, hit, _ := c.GetOrCompute("b", func() (*ProfileResult, error) { return mk("b"), nil }); !hit {
		t.Error("b should be resident")
	}
	if _, hit, _ := c.GetOrCompute("a", func() (*ProfileResult, error) { return mk("a"), nil }); hit {
		t.Error("a should have been evicted")
	}
}

func TestProfileCacheTouchRefreshesLRU(t *testing.T) {
	c := newProfileCache(2, NewMetrics())
	mk := func(key string) *ProfileResult { return &ProfileResult{CacheKey: key} }
	c.GetOrCompute("a", func() (*ProfileResult, error) { return mk("a"), nil })
	c.GetOrCompute("b", func() (*ProfileResult, error) { return mk("b"), nil })
	c.GetOrCompute("a", func() (*ProfileResult, error) { return mk("a"), nil }) // touch a
	c.GetOrCompute("c", func() (*ProfileResult, error) { return mk("c"), nil }) // evicts b
	if _, hit, _ := c.GetOrCompute("a", func() (*ProfileResult, error) { return mk("a"), nil }); !hit {
		t.Error("a was touched and must survive")
	}
	if _, hit, _ := c.GetOrCompute("b", func() (*ProfileResult, error) { return mk("b"), nil }); hit {
		t.Error("b was least recently used and must be evicted")
	}
}

// TestCacheCapacityIsExact: CacheEntries and SimCacheEntries bound the
// resident entries exactly — at capacity 1, one profile and one cell
// stay in memory however many distinct keys pass through.
func TestCacheCapacityIsExact(t *testing.T) {
	s := New(Config{Workers: 2, SimCacheEntries: 1, CacheEntries: 1})
	defer s.Close()
	runSweepToDone(t, s, SimulateRequest{Workloads: []string{"SP", "NW"}, Schemes: []string{"BASE", "PAE"}, Scale: "tiny"})
	for _, wl := range []string{"MT", "SP", "NW", "LU"} {
		if _, _, err := s.Profile(ProfileRequest{Workload: wl, Scale: "tiny"}); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.simCache.Len(); n != 1 {
		t.Errorf("sim cache holds %d cells at capacity 1", n)
	}
	if n := s.cache.Len(); n != 1 {
		t.Errorf("profile cache holds %d profiles at capacity 1", n)
	}
}

func TestProfileCacheCoalescesInflight(t *testing.T) {
	c := newProfileCache(8, NewMetrics())
	var computes atomic.Int64
	gate := make(chan struct{})
	const n = 20
	var wg sync.WaitGroup
	hits := make([]bool, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, hit, err := c.GetOrCompute("k", func() (*ProfileResult, error) {
				computes.Add(1)
				<-gate
				return &ProfileResult{CacheKey: "k"}, nil
			})
			if err != nil {
				t.Error(err)
			}
			hits[i] = hit
		}()
	}
	close(gate)
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Fatalf("computed %d times, want exactly 1", got)
	}
	nHits := 0
	for _, h := range hits {
		if h {
			nHits++
		}
	}
	if nHits != n-1 {
		t.Errorf("%d hits out of %d, want %d (all but the computing caller)", nHits, n, n-1)
	}
}

func TestProfileCacheSurvivesPanickingCompute(t *testing.T) {
	c := newProfileCache(8, NewMetrics())
	_, _, err := c.GetOrCompute("k", func() (*ProfileResult, error) { panic("boom") })
	if err == nil {
		t.Fatal("panicking compute must surface as an error")
	}
	// The key must not be poisoned: a retry computes fresh, no hang.
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, hit, err := c.GetOrCompute("k", func() (*ProfileResult, error) { return &ProfileResult{}, nil }); hit || err != nil {
			t.Errorf("retry after panic: hit=%v err=%v", hit, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("retry after panicking compute hung — in-flight entry leaked")
	}
}

func TestProfileCacheDoesNotCacheErrors(t *testing.T) {
	c := newProfileCache(8, NewMetrics())
	boom := errors.New("boom")
	if _, _, err := c.GetOrCompute("k", func() (*ProfileResult, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, hit, err := c.GetOrCompute("k", func() (*ProfileResult, error) { return &ProfileResult{}, nil }); hit || err != nil {
		t.Fatalf("after error: hit=%v err=%v, want recompute", hit, err)
	}
}

func TestProfileWorkloadAndValley(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()

	res, hit, err := s.Profile(ProfileRequest{Workload: "MT", Scale: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("first request must miss")
	}
	if len(res.PerBit) != 30 {
		t.Fatalf("per_bit has %d entries, want 30", len(res.PerBit))
	}
	if !res.Valley {
		t.Error("MT must classify as an entropy-valley workload")
	}
	if len(res.ValleyRanges) == 0 {
		t.Error("MT must report at least one valley range")
	}
	for _, r := range res.ValleyRanges {
		// 128 B coalescing zeroes bits 0-6; dead line-offset bits are
		// structural, not a harvestable valley.
		if r.Lo < 7 {
			t.Errorf("valley range %+v includes coalescing-zeroed bits", r)
		}
	}

	res2, hit2, err := s.Profile(ProfileRequest{Workload: "MT", Scale: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	if !hit2 {
		t.Error("identical request must hit the cache")
	}
	if res2.CacheKey != res.CacheKey {
		t.Errorf("cache keys differ: %q vs %q", res.CacheKey, res2.CacheKey)
	}

	// Different options must not collide.
	res3, hit3, err := s.Profile(ProfileRequest{Workload: "MT", Scale: "tiny", Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	if hit3 {
		t.Error("different window must be a distinct cache entry")
	}
	if res3.CacheKey == res.CacheKey {
		t.Error("window must be part of the cache key")
	}
}

func TestProfileLargeLineBytesDoesNotForceValley(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	// 512 B coalescing structurally zeroes channel bit 8; the valley
	// verdict must come from the surviving channel/bank bits, not from
	// bits the line mask forced to zero.
	res, _, err := s.Profile(ProfileRequest{Workload: "MUM", Scale: "tiny", LineBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	if res.Valley {
		t.Error("MUM (uniform random) must not be classified as a valley just because line_bytes=512 zeroes bit 8")
	}
	for _, r := range res.ValleyRanges {
		if r.Lo < 9 {
			t.Errorf("valley range %+v includes bits zeroed by 512 B coalescing", r)
		}
	}
}

func TestProfileSeedIgnoredWithoutScheme(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	r1, _, err := s.Profile(ProfileRequest{Workload: "SP", Scale: "tiny", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, hit, err := s.Profile(ProfileRequest{Workload: "SP", Scale: "tiny", Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Errorf("seed without scheme must not fragment the cache (key %q)", r1.CacheKey)
	}
}

func TestJobStoreEvictsFinishedAndBoundsInflight(t *testing.T) {
	js := newJobStore(2)
	a, err := js.create(1, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	js.finish(a.ID, nil, nil)
	b, err := js.create(1, nil, nil, nil) // in flight: must never be evicted
	if err != nil {
		t.Fatal(err)
	}
	c, err := js.create(1, nil, nil, nil) // at cap: evicts finished a
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := js.get(a.ID); ok {
		t.Error("oldest finished job must be evicted past the cap")
	}
	for _, id := range []string{b.ID, c.ID} {
		if _, ok := js.get(id); !ok {
			t.Errorf("job %s must be retained", id)
		}
	}
	// Cap full of in-flight jobs: creation must fail, not grow the store.
	if _, err := js.create(1, nil, nil, nil); err == nil {
		t.Error("create with a cap full of in-flight jobs must error")
	}
	js.finish(b.ID, nil, nil)
	if _, err := js.create(1, nil, nil, nil); err != nil {
		t.Errorf("create after a job finished must succeed, got %v", err)
	}
}

func TestSimulateRejectsWhenJobCapFull(t *testing.T) {
	s := New(Config{Workers: 1, MaxJobs: 1})
	defer s.Close()
	// Park the only worker so the first job stays in flight.
	gate := make(chan struct{})
	s.pool.submit(func() { <-gate })

	job, err := s.Simulate(SimulateRequest{Workloads: []string{"SP"}, Schemes: []string{"BASE"}, Scale: "tiny"})
	if err != nil {
		close(gate)
		t.Fatal(err)
	}
	_, err = s.Simulate(SimulateRequest{Workloads: []string{"SP"}, Schemes: []string{"BASE"}, Scale: "tiny"})
	var ov overloadedError
	if err == nil || !errors.As(err, &ov) {
		t.Errorf("second simulate with MaxJobs=1 must be rejected as overloaded while the first runs, got %v", err)
	}
	close(gate)
	if j := waitJob(t, s, job.ID); j.Status != JobDone {
		t.Errorf("first job ended %s: %s", j.Status, j.Error)
	}
}

func TestSimulateAfterCloseRejected(t *testing.T) {
	s := New(Config{Workers: 1})
	s.Close()
	_, err := s.Simulate(SimulateRequest{Workloads: []string{"SP"}, Schemes: []string{"BASE"}, Scale: "tiny"})
	var ov overloadedError
	if err == nil || !errors.As(err, &ov) {
		t.Errorf("Simulate after Close: err = %v, want overloaded (no dispatcher may start once Close begins)", err)
	}
	s.Close() // idempotent, and must not deadlock after the rejection
}

func TestPoolSubmitAfterClose(t *testing.T) {
	m := NewMetrics()
	p := newPool(2, 4, m, nil)
	done := make(chan struct{})
	if !p.submit(func() { close(done) }) {
		t.Fatal("submit before close must succeed")
	}
	<-done
	p.close()
	if p.submit(func() {}) {
		t.Error("submit after close must report false, not panic")
	}
}

func TestProfileErrors(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()

	cases := []struct {
		name string
		req  ProfileRequest
		is   func(error) bool
	}{
		{"empty", ProfileRequest{}, isBadRequest},
		{"unknown workload", ProfileRequest{Workload: "NOPE"}, isNotFound},
		{"bad scale", ProfileRequest{Workload: "MT", Scale: "huge"}, isBadRequest},
		{"bad scheme", ProfileRequest{Workload: "MT", Scheme: "XYZ"}, isBadRequest},
		{"negative window", ProfileRequest{Workload: "MT", Window: -3}, isBadRequest},
		{"non-pow2 line bytes", ProfileRequest{Workload: "MT", LineBytes: 100}, isBadRequest},
		{"bits below channel/bank field", ProfileRequest{Workload: "MT", Bits: 8}, isBadRequest},
		{"huge line bytes", ProfileRequest{Workload: "MT", LineBytes: 1 << 21}, isBadRequest},
		{"both sources", ProfileRequest{Workload: "MT", TraceCSV: "K,k,1,0\nR,0,0,R,100\n"}, isBadRequest},
		{"bad trace", ProfileRequest{TraceCSV: "garbage"}, isBadRequest},
	}
	for _, tc := range cases {
		if _, _, err := s.Profile(tc.req); err == nil || !tc.is(err) {
			t.Errorf("%s: err = %v, want typed client error", tc.name, err)
		}
	}
}

func isBadRequest(err error) bool { var e badRequestError; return errors.As(err, &e) }
func isNotFound(err error) bool   { var e notFoundError; return errors.As(err, &e) }

func TestAdviseRecommendsEntropyGain(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()

	res, err := s.Advise(AdviseRequest{ProfileRequest: ProfileRequest{Workload: "MT", Scale: "tiny"}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Base.Valley {
		t.Fatal("MT base profile must have a valley")
	}
	if res.Recommended.Gain <= 0 {
		t.Errorf("recommended gain = %g, want > 0 (valley must be fillable)", res.Recommended.Gain)
	}
	if got := res.Recommended.Scheme; got != "PAE" && got != "FAE" && got != "ALL" {
		t.Errorf("recommended scheme = %q, want a proposed scheme", got)
	}
	if len(res.Candidates) != 9 { // 3 schemes x 3 seeds
		t.Errorf("evaluated %d candidates, want 9", len(res.Candidates))
	}
	// Candidates are sorted by gain descending.
	for i := 1; i < len(res.Candidates); i++ {
		if res.Candidates[i].Gain > res.Candidates[i-1].Gain+1e-12 {
			t.Errorf("candidates not sorted: %g before %g", res.Candidates[i-1].Gain, res.Candidates[i].Gain)
		}
	}
	if res.Recommended.BIM.N() != 30 {
		t.Errorf("recommended BIM is %d-bit, want 30", res.Recommended.BIM.N())
	}
}

func TestAdviseRejectsMappedBase(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	_, err := s.Advise(AdviseRequest{ProfileRequest: ProfileRequest{Workload: "MT", Scheme: "PAE"}})
	if !isBadRequest(err) {
		t.Errorf("err = %v, want bad request", err)
	}
	_, err = s.Advise(AdviseRequest{ProfileRequest: ProfileRequest{Workload: "MT"}, Schemes: []string{"BASE"}})
	if !isBadRequest(err) {
		t.Errorf("BASE candidate: err = %v, want bad request", err)
	}
	_, err = s.Advise(AdviseRequest{ProfileRequest: ProfileRequest{Workload: "MT"}, Seeds: []int64{0}})
	if !isBadRequest(err) {
		t.Errorf("seed 0: err = %v, want bad request (BIM would not match reported gains)", err)
	}
	_, err = s.Advise(AdviseRequest{ProfileRequest: ProfileRequest{Workload: "MT", Seed: 7}})
	if !isBadRequest(err) {
		t.Errorf("embedded seed: err = %v, want bad request (would be silently ignored)", err)
	}
}

func TestAggregateSweep(t *testing.T) {
	cell := func(wl, sc string, ps int64) CellResult {
		return CellResult{Workload: wl, Scheme: sc, ResultJSON: experiments.ResultJSON{ExecTimePS: ps}}
	}
	r := &SimulateResult{
		Cells: []CellResult{
			cell("MT", "BASE", 1000),
			cell("MT", "PAE", 500),
			cell("LU", "BASE", 900),
			cell("LU", "PAE", 600),
		},
	}
	aggregateSweep(r)
	if got := r.Cells[1].Speedup; got != 2.0 {
		t.Errorf("MT PAE speedup = %g, want 2", got)
	}
	hm := r.HMeanSpeedup["PAE"]
	want := 2.0 / (1/2.0 + 1/1.5)
	if diff := hm - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("hmean = %g, want %g", hm, want)
	}
	if r.HMeanSpeedup["BASE"] != 1.0 {
		t.Errorf("BASE hmean = %g, want 1", r.HMeanSpeedup["BASE"])
	}
}

func TestSimulateJobLifecycle(t *testing.T) {
	s := New(Config{Workers: 4})
	defer s.Close()

	job, err := s.Simulate(SimulateRequest{
		Workloads: []string{"MT"},
		Schemes:   []string{"BASE", "PAE"},
		Scale:     "tiny",
	})
	if err != nil {
		t.Fatal(err)
	}
	if job.Total != 2 {
		t.Fatalf("total cells = %d, want 2", job.Total)
	}
	final := waitJob(t, s, job.ID)
	if final.Status != JobDone {
		t.Fatalf("job status = %s (error %q), want done", final.Status, final.Error)
	}
	if final.Done != 2 {
		t.Errorf("done cells = %d, want 2", final.Done)
	}
	res := final.Result
	if res == nil || len(res.Cells) != 2 {
		t.Fatalf("result = %+v, want 2 cells", res)
	}
	for _, c := range res.Cells {
		if c.ExecTimePS <= 0 {
			t.Errorf("cell %s/%s has non-positive exec time", c.Workload, c.Scheme)
		}
	}
	if res.HMeanSpeedup["PAE"] <= 0 {
		t.Errorf("PAE hmean speedup = %g, want > 0", res.HMeanSpeedup["PAE"])
	}
}

// TestSimulateResultCache pins the simulation-result cache: a repeated
// sweep serves every cell from cache (Cached=true, hit counters move,
// no new simulations) with identical metrics, and both sweeps record
// wall times.
func TestSimulateResultCache(t *testing.T) {
	s := New(Config{Workers: 4})
	defer s.Close()

	req := SimulateRequest{
		Workloads: []string{"SP", "NW"},
		Schemes:   []string{"BASE", "PAE"},
		Scale:     "tiny",
	}
	sweep := func() *SimulateResult {
		t.Helper()
		job, err := s.Simulate(req)
		if err != nil {
			t.Fatal(err)
		}
		final := waitJob(t, s, job.ID)
		if final.Status != JobDone {
			t.Fatalf("job status = %s (error %q)", final.Status, final.Error)
		}
		return final.Result
	}

	first := sweep()
	if hits, misses := s.Metrics().SimCacheCounts(); hits != 0 || misses != 4 {
		t.Fatalf("after cold sweep hits=%d misses=%d, want 0/4", hits, misses)
	}
	if first.Seconds <= 0 {
		t.Error("cold sweep recorded no duration")
	}
	for _, c := range first.Cells {
		if c.Cached {
			t.Errorf("cold cell %s/%s marked cached", c.Workload, c.Scheme)
		}
		if c.Seconds <= 0 {
			t.Errorf("cold cell %s/%s recorded no wall time", c.Workload, c.Scheme)
		}
	}

	second := sweep()
	if hits, _ := s.Metrics().SimCacheCounts(); hits != 4 {
		t.Fatalf("after warm sweep hits=%d, want 4", hits)
	}
	for i, c := range second.Cells {
		if !c.Cached {
			t.Errorf("warm cell %s/%s not served from cache", c.Workload, c.Scheme)
		}
		if c.ResultJSON != first.Cells[i].ResultJSON {
			t.Errorf("warm cell %s/%s metrics differ from cold run", c.Workload, c.Scheme)
		}
	}
	if second.HMeanSpeedup["PAE"] != first.HMeanSpeedup["PAE"] {
		t.Error("cached sweep changed aggregate speedups")
	}
	if s.metrics.sweepSeconds.Value() <= 0 {
		t.Error("sweep_seconds metric not accumulated")
	}
	if got := s.metrics.cellsSimulated.Value(); got != 4 {
		t.Errorf("cells simulated = %v, want 4 (cache hits must not re-simulate)", got)
	}
}

// TestClusterWorkerQueueWait: every cell of a sweep, cold or cached, is
// queued through cellTask, so each lands in valleyd_queue_wait_seconds
// exactly once, as it does in valleyd_cell_simulation_seconds. The name
// dates from when cluster workers ran their batch cells through the same
// task; the 4×4 grid is the one those workers were given.
func TestClusterWorkerQueueWait(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()

	req := SimulateRequest{
		Workloads: []string{"MT", "LU", "SC", "SP"},
		Schemes:   []string{"BASE", "RMP", "PAE", "FAE"},
		Scale:     "tiny",
	}
	var want int64
	for _, pass := range []string{"cold", "warm"} {
		job, err := s.Simulate(req)
		if err != nil {
			t.Fatal(err)
		}
		final := waitJob(t, s, job.ID)
		if final.Status != JobDone {
			t.Fatalf("%s job status = %s (error %q)", pass, final.Status, final.Error)
		}
		want += int64(len(final.Result.Cells))
		if waits, cells := s.metrics.queueWait.Count(), s.metrics.cellSeconds.Count(); waits != want || cells != want {
			t.Errorf("after %s sweep observed %d queue waits and %d cell times, want %d each", pass, waits, cells, want)
		}
	}
	if want != 32 {
		t.Errorf("two sweeps returned %d cells, want 32", want)
	}
}

func TestSimulateValidation(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	cases := []struct {
		name  string
		req   SimulateRequest
		is    func(error) bool
		names string // a substring the error must carry
	}{
		{"empty", SimulateRequest{}, isBadRequest, ""},
		{"unknown workload", SimulateRequest{Workloads: []string{"NOPE"}}, isNotFound, `"NOPE"`},
		{"unknown set", SimulateRequest{Set: "everything"}, isBadRequest, `"everything"`},
		{"both", SimulateRequest{Workloads: []string{"MT"}, Set: "valley"}, isBadRequest, ""},
		{"bad scheme", SimulateRequest{Workloads: []string{"MT"}, Schemes: []string{"???"}}, isBadRequest, `"???"`},
		{"bad config", SimulateRequest{Workloads: []string{"MT"}, Config: "quantum"}, isBadRequest, `"quantum"`},
		// A (workload, scheme) pair names exactly one slot of the
		// result grid, so neither axis may repeat.
		{"duplicate workload", SimulateRequest{Workloads: []string{"MT", "MT"}, Schemes: []string{"BASE"}, Scale: "tiny"}, isBadRequest, `"MT"`},
		{"duplicate scheme after parsing", SimulateRequest{Workloads: []string{"MT"}, Schemes: []string{"pae", "PAE"}, Scale: "tiny"}, isBadRequest, `"PAE"`},
	}
	for _, tc := range cases {
		_, err := s.Simulate(tc.req)
		if err == nil || !tc.is(err) {
			t.Errorf("%s: err = %v, want typed client error", tc.name, err)
			continue
		}
		if !strings.Contains(err.Error(), tc.names) {
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.names)
		}
	}
}

// TestExecuteCellSharesSweepKeys pins that every cell entry point uses
// one key scheme: ExecuteCell on a cell a sweep just computed is a cache
// hit with the sweep's exact metrics, and on a fresh service the same
// call simulates to the same metrics.
func TestExecuteCellSharesSweepKeys(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	req := SimulateRequest{Workloads: []string{"MT", "SP"}, Schemes: []string{"BASE", "PAE"}, Scale: "tiny"}
	job, err := s.Simulate(req)
	if err != nil {
		t.Fatal(err)
	}
	j := waitJob(t, s, job.ID)
	if j.Status != JobDone {
		t.Fatalf("sweep ended %q: %s", j.Status, j.Error)
	}
	fresh := New(Config{Workers: 1})
	defer fresh.Close()
	for _, c := range j.Result.Cells {
		spec := CellSpec{Workload: c.Workload, Scheme: c.Scheme, Scale: req.Scale}
		warm, err := s.ExecuteCell(context.Background(), spec)
		if err != nil {
			t.Fatalf("ExecuteCell %s/%s: %v", c.Workload, c.Scheme, err)
		}
		if !warm.Cached || warm.ResultJSON != c.ResultJSON {
			t.Errorf("ExecuteCell %s/%s after the sweep: cached=%v, metrics match=%v; want a hit on the sweep's cell",
				c.Workload, c.Scheme, warm.Cached, warm.ResultJSON == c.ResultJSON)
		}
		cold, err := fresh.ExecuteCell(context.Background(), spec)
		if err != nil {
			t.Fatalf("fresh ExecuteCell %s/%s: %v", c.Workload, c.Scheme, err)
		}
		if cold.Cached || cold.ResultJSON != c.ResultJSON {
			t.Errorf("ExecuteCell %s/%s on a fresh service: cached=%v, metrics match=%v; want a simulation equal to the sweep's",
				c.Workload, c.Scheme, cold.Cached, cold.ResultJSON == c.ResultJSON)
		}
	}
}
