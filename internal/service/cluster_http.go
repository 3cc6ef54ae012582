package service

// Worker-side cluster endpoint: POST /v1/cells executes a batch of
// sweep cells on this node's pool and streams each finished cell back
// as an NDJSON update. The endpoint is the cell-execution core
// (executeCell) behind a wire protocol — no job, no event log, no
// aggregation; those belong to the coordinator that owns the sweep.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"valleymap/internal/cluster"
	"valleymap/internal/obs"
)

// maxBatchCells bounds one /v1/cells request, mirroring the sweep
// grid's own bound (every workload × every scheme is far below this).
const maxBatchCells = 4096

// cellOutcome is one worker-local cell completion, fed from pool tasks
// to the streaming response loop over a buffered channel.
type cellOutcome struct {
	i    int
	done CellResult
	err  error
}

// handleCells implements the coordinator→worker batch protocol
// documented in internal/cluster: validate and resolve every cell
// before the stream starts (so vocabulary errors are still plain HTTP
// 400/404s), then execute the batch on the worker pool and stream one
// {"type":"cell"} update per completion, in completion order, with a
// terminal {"type":"done"} or {"type":"failed"}. The coordinator's
// X-Deadline-Ms bounds the whole batch.
func (s *Service) handleCells(w http.ResponseWriter, r *http.Request) {
	var b cluster.Batch
	if err := decodeJSON(r, &b, jsonBodyLimit); err != nil {
		writeError(w, err)
		return
	}
	if len(b.Cells) == 0 {
		writeError(w, badRequestf("empty cell batch"))
		return
	}
	if len(b.Cells) > maxBatchCells {
		writeError(w, badRequestf("batch has %d cells (limit %d)", len(b.Cells), maxBatchCells))
		return
	}
	rc, err := resolveCoords(b.Config, b.Scale, b.Seed)
	if err != nil {
		writeError(w, err)
		return
	}
	// One shared trace build per workload, exactly like a local sweep's
	// apps slice — a batch naming the same workload under many schemes
	// materializes its trace once.
	apps := map[string]*sharedApp{}
	execs := make([]cellExec, len(b.Cells))
	for i, c := range b.Cells {
		ce, err := rc.resolveCell(c.Workload, c.Scheme)
		if err != nil {
			writeError(w, err)
			return
		}
		if apps[c.Workload] == nil {
			apps[c.Workload] = &sharedApp{}
		}
		ce.sa = apps[c.Workload]
		execs[i] = ce
	}

	ctx := r.Context()
	budget, err := deadlineBudget(r, 0)
	if err != nil {
		writeError(w, err)
		return
	}
	if budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, budget)
		defer cancel()
	}
	log := obs.Logger(ctx)

	// Buffered to the batch size: a task's report never blocks, so an
	// early-exiting response loop (failure, dead coordinator) cannot
	// strand pool workers.
	out := make(chan cellOutcome, len(b.Cells))
	report := func(i int, done CellResult, err error) {
		out <- cellOutcome{i: i, done: done, err: err}
	}
	submitted := 0
	for i, ce := range execs {
		if !s.pool.submit(s.cellTask(ctx, i, ce, report)) {
			// Shutting down: cells not yet submitted fail the batch; the
			// coordinator re-homes them.
			report(i, CellResult{}, errClosed)
		}
		submitted++
	}

	h := w.Header()
	h.Set("Content-Type", "application/x-ndjson")
	h.Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	writeUpdate := func(u cluster.Update) bool {
		if err := enc.Encode(u); err != nil {
			return false // coordinator gone; tasks drain via ctx
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	start := time.Now()
	for n := 0; n < submitted; n++ {
		var o cellOutcome
		select {
		case o = <-out:
		case <-ctx.Done():
			writeUpdate(cluster.Update{Type: cluster.UpdateFailed, Error: ctx.Err().Error()})
			return
		}
		if o.err != nil {
			// Any cell failure fails the batch: the coordinator only
			// retries cells it never saw delivered, so ending the
			// stream here is safe and keeps the protocol simple.
			writeUpdate(cluster.Update{Type: cluster.UpdateFailed, Error: o.err.Error()})
			return
		}
		payload, err := json.Marshal(o.done)
		if err != nil {
			writeUpdate(cluster.Update{Type: cluster.UpdateFailed, Error: fmt.Sprintf("encoding cell result: %v", err)})
			return
		}
		ok := writeUpdate(cluster.Update{
			Type:    cluster.UpdateCell,
			Cell:    &b.Cells[o.i],
			Payload: payload,
		})
		if !ok {
			return
		}
	}
	writeUpdate(cluster.Update{Type: cluster.UpdateDone})
	log.Debug("cell batch served",
		"cells", len(b.Cells),
		"duration_ms", time.Since(start).Milliseconds(),
	)
}
