package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"time"

	"valleymap/internal/experiments"
	"valleymap/internal/gpusim"
	"valleymap/internal/mapping"
	"valleymap/internal/service"
	"valleymap/internal/workload"
)

// sweepSchemes are the schemes of every benchmark sweep over the valley
// set: 10 workloads × 4 schemes = 40 cells.
var sweepSchemes = []string{"BASE", "PM", "PAE", "FAE"}

func sweepRequest(scale string, seed int64) service.SimulateRequest {
	return service.SimulateRequest{Set: "valley", Schemes: sweepSchemes, Scale: scale, Seed: seed}
}

// newClient returns an HTTP client that opens at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
	}
}

// clientCount is the number of concurrent clients of the two-client
// workloads: at most one per CPU, so the load generator cannot outnumber
// the daemon's default worker pool.
func clientCount() int { return min(2, runtime.NumCPU()) }

// sweepReply is one streamed sweep as the client saw it.
type sweepReply struct {
	jobID     string
	seed      int64
	cells     []service.CellResult
	firstCell time.Duration
}

// sweep sends one POST /v1/simulate?stream=1 and reads the NDJSON event
// stream to its terminal event. A non-2xx status, a transport error, a
// terminal event other than done or a stream that ends without one is
// an error.
func sweep(c *http.Client, url string, req service.SimulateRequest) (sweepReply, error) {
	rep := sweepReply{seed: req.Seed}
	body, err := json.Marshal(req)
	if err != nil {
		return rep, err
	}
	start := time.Now()
	resp, err := c.Post(url+"/v1/simulate?stream=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return rep, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return rep, fmt.Errorf("simulate: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	dec := json.NewDecoder(resp.Body)
	for {
		// The done event repeats every cell in its aggregated result; the
		// cells are read from the cell events, so the result is skipped.
		var ev struct {
			Type  string              `json:"type"`
			JobID string              `json:"job_id"`
			Total int                 `json:"total_cells"`
			Cell  *service.CellResult `json:"cell"`
			Error string              `json:"error"`
		}
		if err := dec.Decode(&ev); err != nil {
			if errors.Is(err, io.EOF) {
				err = errors.New("stream ended without a terminal event")
			}
			return rep, fmt.Errorf("sweep seed %d: %w", req.Seed, err)
		}
		rep.jobID = ev.JobID
		switch ev.Type {
		case service.EventStart:
		case service.EventCell:
			if ev.Cell == nil {
				return rep, fmt.Errorf("sweep seed %d: cell event without a cell", req.Seed)
			}
			if len(rep.cells) == 0 {
				rep.firstCell = time.Since(start)
			}
			rep.cells = append(rep.cells, *ev.Cell)
		case service.EventDone:
			if len(rep.cells) != ev.Total {
				return rep, fmt.Errorf("sweep seed %d: %d of %d cells streamed", req.Seed, len(rep.cells), ev.Total)
			}
			return rep, nil
		default:
			return rep, fmt.Errorf("sweep seed %d ended %s: %s", req.Seed, ev.Type, ev.Error)
		}
	}
}

// runSweepCold drives the expensive valleyd path: one client sends
// full-scale valley sweeps with fresh seeds, so every cell misses the
// result store, and enough of them overflow its memory tier to exercise
// inserts, evictions and spill writes. It loads the worker pool, trace
// builds, gpusim and the store's write path.
func runSweepCold(r *run) error {
	client := newClient(1)
	defer client.CloseIdleConnections()
	base := 1000 * (1 + r.rng.Int63n(1_000_000))
	// Set-up warms the daemon with one tiny-scale sweep, whose cells key
	// apart from the full-scale ones the window measures.
	d, err := r.startDaemons(func(d *daemon) error {
		_, err := sweep(client, d.url, sweepRequest("tiny", base))
		return err
	})
	if err != nil {
		return err
	}
	defer d.stop() //nolint:errcheck // error paths only; the success path checks it
	var (
		sent int64
		done []sweepReply
	)
	op := func(traced bool) func(int) {
		return func(int) {
			sent++
			start := time.Now()
			rep, err := sweep(client, d.url, sweepRequest(r.scale("full"), base+sent))
			end := time.Now()
			r.attempt(err)
			if err != nil {
				return
			}
			r.sample(opSample(traced), ms(end.Sub(start)))
			done = append(done, rep)
			if traced {
				r.sample("first_cell_ms", ms(rep.firstCell))
				r.recordJob(d.svc, rep.jobID, r.spans.add(0, "http.sweep", start, end))
			}
		}
	}
	if !r.traced {
		return r.measureDaemon(d, 1, op, func() error { return r.checkBaseCells(done) })
	}

	m := d.svc.Metrics()
	hits0, misses0 := m.SimCacheCounts()
	writes0, drops0, _ := m.SpillCounts()
	if err := r.traceWindow(1, op); err != nil {
		return err
	}
	hits, misses := m.SimCacheCounts()
	writes, drops, _ := m.SpillCounts()
	for _, name := range []string{"queue_wait", "trace_build", "engine_run", "cache_put"} {
		r.set("service."+name+"_ms", median(r.samplesOf(name)))
	}
	r.set("service.sweep_self_ms", median(r.samplesOf("sweep_self_ms")))
	r.set("service.pool_busy_ratio", median(r.samplesOf("pool_busy_ratio")))
	r.set("http.first_cell_ms", median(r.samplesOf("first_cell_ms")))
	r.set("cache.miss_ratio", float64(misses-misses0)/float64(max(hits-hits0+misses-misses0, 1)))
	r.set("cache.spill_writes", float64(writes-writes0))
	r.set("cache.spill_drops", float64(drops-drops0))
	return r.checkBaseCells(done)
}

// recordJob files a finished sweep's span tree under the benchmark span
// parent and samples, per sweep, each cell stage's mean time per cell,
// the root span's self time and the worker pool's busy ratio.
func (r *run) recordJob(svc *service.Service, jobID string, parent int) {
	jt, ok := svc.JobTrace(jobID)
	roots := findSpans(jt.Spans, "job")
	if !ok || len(roots) != 1 {
		r.failVerified(fmt.Errorf("job %s has no single root span", jobID))
		return
	}
	r.spans.addTree(parent, jt.Spans)
	root := roots[0]
	cells := findSpans(root.Children, "cell")
	if len(cells) == 0 {
		return
	}
	for _, name := range []string{"queue_wait", "trace_build", "engine_run", "cache_put"} {
		var total time.Duration
		for _, s := range findSpans(cells, name) {
			total += time.Duration(s.DurationUS) * time.Microsecond
		}
		r.sample(name, ms(total)/float64(len(cells)))
	}
	var busy time.Duration
	for _, c := range cells {
		busy += time.Duration(c.DurationUS) * time.Microsecond
		for _, q := range findSpans(c.Children, "queue_wait") {
			busy -= time.Duration(q.DurationUS) * time.Microsecond
		}
	}
	rootDur := time.Duration(root.DurationUS) * time.Microsecond
	r.sample("sweep_self_ms", ms(selfTime(root, cells)))
	r.sample("pool_busy_ratio", float64(busy)/float64(time.Duration(runtime.GOMAXPROCS(0))*rootDur))
}

// checkBaseCells verifies every streamed BASE cell against the library
// path, experiments.RunSuite in this process. BASE does not depend on
// the seed, so the service and the library must agree bit for bit.
func (r *run) checkBaseCells(sweeps []sweepReply) error {
	scale, err := parseScale(r.scale("full"))
	if err != nil {
		return err
	}
	lib := experiments.RunSuite(workload.ValleySet(), []mapping.Scheme{mapping.BASE}, gpusim.Baseline(), experiments.Options{Scale: scale})
	for _, sw := range sweeps {
		for _, c := range sw.cells {
			if c.Scheme != string(mapping.BASE) {
				continue
			}
			if c.ResultJSON != experiments.FlattenResult(lib.Results[c.Workload][mapping.BASE]) {
				r.failVerified(fmt.Errorf("sweep seed %d: BASE %s differs from the library path", sw.seed, c.Workload))
				break
			}
		}
	}
	return nil
}

// cellKey names one cell of a warm sweep.
type cellKey struct {
	seed             int64
	workload, scheme string
}

// runSweepWarm drives the result store's read path: set-up fills it
// with 8 tiny-scale sweeps (320 cells, more than the 256-entry memory
// tier holds, so some hits come from disk), then two clients repeat
// those sweeps in seeded random order. It loads HTTP, the job store,
// the event bus, NDJSON encoding and both cache tiers, and bypasses
// gpusim entirely.
func runSweepWarm(r *run) error {
	base := 1000 * (1 + r.rng.Int63n(1_000_000))
	seeds := make([]int64, 8)
	for i := range seeds {
		seeds[i] = base + int64(i)
	}
	var prepop map[cellKey]experiments.ResultJSON
	d, err := r.startDaemons(func(d *daemon) error {
		client := newClient(1)
		defer client.CloseIdleConnections()
		prepop = map[cellKey]experiments.ResultJSON{}
		for _, s := range seeds {
			rep, err := sweep(client, d.url, sweepRequest("tiny", s))
			if err != nil {
				return fmt.Errorf("prepopulating: %w", err)
			}
			for _, c := range rep.cells {
				prepop[cellKey{s, c.Workload, c.Scheme}] = c.ResultJSON
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	defer d.stop() //nolint:errcheck // error paths only; the success path checks it
	clients := clientCount()
	client := newClient(clients)
	defer client.CloseIdleConnections()
	rngs := make([]*rand.Rand, clients)
	for c := range rngs {
		rngs[c] = rand.New(rand.NewSource(r.rng.Int63()))
	}
	op := func(traced bool) func(int) {
		return func(c int) {
			s := seeds[rngs[c].Intn(len(seeds))]
			start := time.Now()
			rep, err := sweep(client, d.url, sweepRequest("tiny", s))
			end := time.Now()
			if err == nil {
				err = checkWarm(rep, prepop)
			}
			r.attempt(err)
			if err != nil {
				return
			}
			r.sample(opSample(traced), ms(end.Sub(start)))
			if traced {
				r.spans.add(0, "http.sweep", start, end)
			}
		}
	}
	if !r.traced {
		return r.measureDaemon(d, clients, op, nil)
	}

	m := d.svc.Metrics()
	mem0, disk0 := m.TierHits()
	if err := r.traceWindow(clients, op); err != nil {
		return err
	}
	mem, disk := m.TierHits()
	r.set("cache.disk_hit_ratio", float64(disk-disk0)/float64(max(mem-mem0+disk-disk0, 1)))
	r.probeTiers(d.svc, seeds, prepop)
	if err := r.probeSweepPaths(client, d, seeds, prepop); err != nil {
		return err
	}
	r.set("cache.hit_us.mem", median(r.samplesOf("hit_us.mem")))
	r.set("cache.hit_us.disk", median(r.samplesOf("hit_us.disk")))
	r.set("service.warm_sweep_self_ms", median(r.samplesOf("warm_self_ms")))
	r.set("http.sweep_self_ms", median(r.samplesOf("http_self_ms")))
	return nil
}

func checkWarm(rep sweepReply, prepop map[cellKey]experiments.ResultJSON) error {
	for _, c := range rep.cells {
		if want, ok := prepop[cellKey{rep.seed, c.Workload, c.Scheme}]; !ok || c.ResultJSON != want {
			return fmt.Errorf("warm sweep seed %d: %s/%s differs from the cell set-up returned", rep.seed, c.Workload, c.Scheme)
		}
	}
	return nil
}

// probeTiers times Service.ExecuteCell on every prepopulated cell in a
// seeded order, for a share of the window, and samples each call's
// latency by the tier that served it.
func (r *run) probeTiers(svc *service.Service, seeds []int64, prepop map[cellKey]experiments.ResultJSON) {
	var keys []cellKey
	for _, s := range seeds {
		for _, sp := range workload.ValleySet() {
			for _, sc := range sweepSchemes {
				keys = append(keys, cellKey{s, sp.Abbr, sc})
			}
		}
	}
	rng := rand.New(rand.NewSource(r.seed))
	m := svc.Metrics()
	start := time.Now()
	for first := true; first || time.Since(start) < r.probeBudget(); first = false {
		for _, i := range rng.Perm(len(keys)) {
			k := keys[i]
			mem0, disk0 := m.TierHits()
			t := time.Now()
			cell, err := svc.ExecuteCell(context.Background(), service.CellSpec{Workload: k.workload, Scheme: k.scheme, Scale: "tiny", Seed: k.seed})
			lat := time.Since(t)
			if err == nil && cell.ResultJSON != prepop[k] {
				err = fmt.Errorf("ExecuteCell seed %d %s/%s differs from the cell set-up returned", k.seed, k.workload, k.scheme)
			}
			r.attempt(err)
			switch mem, disk := m.TierHits(); {
			case disk > disk0:
				r.sample("hit_us.disk", float64(lat)/float64(time.Microsecond))
			case mem > mem0:
				r.sample("hit_us.mem", float64(lat)/float64(time.Microsecond))
			}
		}
	}
}

// probeSweepPaths sends each warm sweep twice in a row, one client at a
// time: over HTTP, then through Service.Simulate and JobEvents in this
// process. It samples what HTTP adds, and the part of the in-process
// sweep that no cell span covers.
func (r *run) probeSweepPaths(client *http.Client, d *daemon, seeds []int64, prepop map[cellKey]experiments.ResultJSON) error {
	rng := rand.New(rand.NewSource(r.seed))
	start := time.Now()
	for first := true; first || time.Since(start) < r.probeBudget(); first = false {
		req := sweepRequest("tiny", seeds[rng.Intn(len(seeds))])
		t0 := time.Now()
		rep, err := sweep(client, d.url, req)
		t1 := time.Now()
		if err == nil {
			err = checkWarm(rep, prepop)
		}
		r.attempt(err)
		if err != nil {
			continue
		}
		rep, err = simulateInProcess(d.svc, req)
		t2 := time.Now()
		if err == nil {
			err = checkWarm(rep, prepop)
		}
		r.attempt(err)
		if err != nil {
			continue
		}
		jt, ok := d.svc.JobTrace(rep.jobID)
		if !ok {
			return fmt.Errorf("job %s has no trace", rep.jobID)
		}
		r.spans.add(0, "http.sweep", t0, t1)
		r.spans.addTree(r.spans.add(0, "service.sweep", t1, t2), jt.Spans)
		r.sample("http_self_ms", ms(t1.Sub(t0)-t2.Sub(t1)))
		r.sample("warm_self_ms", ms(t2.Sub(t1)-covered(t1, t2, findSpans(jt.Spans, "cell"))))
	}
	return nil
}

// simulateInProcess is one sweep through Service.Simulate, read from
// Service.JobEvents to its terminal event.
func simulateInProcess(svc *service.Service, req service.SimulateRequest) (sweepReply, error) {
	rep := sweepReply{seed: req.Seed}
	job, err := svc.Simulate(req)
	if err != nil {
		return rep, err
	}
	rep.jobID = job.ID
	sub, ok := svc.JobEvents(job.ID, 0)
	if !ok {
		return rep, fmt.Errorf("job %s vanished", job.ID)
	}
	defer sub.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for {
		ev, eos, err := sub.Next(ctx)
		switch {
		case err != nil:
			return rep, err
		case eos:
			return rep, errors.New("event stream ended without done")
		case ev.Type == service.EventCell:
			rep.cells = append(rep.cells, *ev.Cell)
		case ev.Type == service.EventDone:
			return rep, nil
		case ev.Type != service.EventStart:
			return rep, fmt.Errorf("sweep ended %s: %s", ev.Type, ev.Error)
		}
	}
}

// probeBudget is how long each post-window probe of a traced run lasts
// at least once through.
func (r *run) probeBudget() time.Duration { return min(r.window/8, 2*time.Second) }
