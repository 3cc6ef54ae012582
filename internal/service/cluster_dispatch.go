package service

// Coordinator-side cluster dispatch: shard a sweep's cells across peer
// valleyd workers by rendezvous hashing over their sim-cache keys, so
// a repeated cell always lands on the worker whose cache (memory or
// spill tier) is already warm. Remote results merge into the job's
// event log through the same deliver path local cells use, preserving
// the dense-seq ordering contract; cells stranded on slow or dead
// peers are stolen — re-ranked onto the next healthy peer, then
// executed locally as the last resort — so one lost worker never loses
// a cell.

import (
	"encoding/json"
	"strconv"
	"sync"
	"time"

	"context"

	"valleymap/internal/cluster"
	"valleymap/internal/gpusim"
	"valleymap/internal/mapping"
	"valleymap/internal/obs"
	"valleymap/internal/workload"
)

// remoteRounds bounds how many remote attempts a cell gets before the
// coordinator executes it locally. Two rounds means: the owner, then
// one steal onto the next-ranked healthy peer.
const remoteRounds = 2

// clusterCellRef tracks one cell through remote dispatch: its grid
// slot, wire form, affinity key and the peers that already failed it.
type clusterCellRef struct {
	wi, si int
	cell   cluster.Cell
	key    string
	tried  map[string]bool
}

// dispatchCluster shards the sweep across the cluster client's healthy
// peers and reports whether it took ownership of the sweep. It returns
// false only when no peer is reachable at entry — the caller then runs
// the whole sweep through dispatchLocal, the single-node path. Once it
// returns true, every cell has been delivered, failed or abandoned to
// cancellation, exactly like dispatchLocal.
func (s *Service) dispatchCluster(ctx context.Context, jobID string, specs []workload.Spec, schemes []mapping.Scheme, cfg gpusim.Config, scale workload.Scale, seed int64, result *SimulateResult, tr *obs.Trace, root obs.SpanRef, apps []sharedApp, deliver func(wi, si int, done CellResult), fail func(error)) bool {
	cl := s.cfg.Cluster
	if len(cl.Healthy()) == 0 {
		// Every peer is in its down cooldown: degrade to plain local
		// execution rather than burning rounds on known-dead peers.
		root.Annotate(obs.Attr{Key: "cluster", Value: "all_peers_down"})
		return false
	}
	root.Annotate(obs.Attr{Key: "cluster", Value: "sharded"})

	pending := make([]*clusterCellRef, 0, len(specs)*len(schemes))
	for wi := range specs {
		for si := range schemes {
			pending = append(pending, &clusterCellRef{
				wi:   wi,
				si:   si,
				cell: cluster.Cell{Workload: specs[wi].Abbr, Scheme: string(schemes[si])},
				key:  simCellKey(specs[wi].Abbr, result.Scale, schemes[si], result.Config, seed),
			})
		}
	}

	for round := 0; round < remoteRounds && len(pending) > 0 && ctx.Err() == nil; round++ {
		healthy := cl.Healthy()
		if len(healthy) == 0 {
			break
		}
		// Group this round's cells by their best untried healthy peer.
		// Rendezvous ranking makes the choice stable across sweeps and
		// coordinators: the same key always prefers the same peer.
		batches := map[string][]*clusterCellRef{}
		var exhausted []*clusterCellRef
		for _, r := range pending {
			var peer string
			for _, p := range cluster.Rank(r.key, healthy) {
				if !r.tried[p] {
					peer = p
					break
				}
			}
			if peer == "" {
				// Every healthy peer already failed this cell.
				exhausted = append(exhausted, r)
				continue
			}
			if len(r.tried) > 0 {
				// Re-dispatch after a failure elsewhere: a steal.
				s.metrics.clusterSteals.Inc()
			}
			batches[peer] = append(batches[peer], r)
		}

		var (
			wg       sync.WaitGroup
			failedMu sync.Mutex
			failed   []*clusterCellRef
		)
		for peer, refs := range batches {
			s.metrics.clusterDispatched.With(peer).Add(float64(len(refs)))
			wg.Add(1)
			go func(peer string, refs []*clusterCellRef) {
				defer wg.Done()
				left := s.runPeerBatch(ctx, peer, refs, result, seed, tr, root, deliver)
				if len(left) > 0 {
					failedMu.Lock()
					failed = append(failed, left...)
					failedMu.Unlock()
				}
			}(peer, refs)
		}
		wg.Wait()
		pending = append(failed, exhausted...)
	}

	// Last resort: whatever the cluster could not place runs on the
	// local pool through the exact same cell core a single-node sweep
	// uses. Stolen-to-local cells count as both a steal and a local
	// fallback.
	if len(pending) > 0 && ctx.Err() == nil {
		var wg sync.WaitGroup
		for _, r := range pending {
			if ctx.Err() != nil {
				break
			}
			if len(r.tried) > 0 {
				s.metrics.clusterSteals.Inc()
			}
			s.metrics.clusterLocalCells.Inc()
			ce := cellExec{
				sp: specs[r.wi], sc: schemes[r.si], sa: &apps[r.wi],
				scale: scale, scaleName: result.Scale,
				cfg: cfg, cfgName: result.Config,
				seed: seed, tr: tr, span: root,
			}
			wg.Add(1)
			if !s.pool.submit(s.cellTask(ctx, jobID, r.wi, r.si, ce, time.Now(), &wg, deliver, fail)) {
				wg.Done()
				fail(errClosed)
				break
			}
		}
		wg.Wait()
	}
	return true
}

// runPeerBatch executes one peer's share of a round and returns the
// refs the peer did not deliver (to be stolen next round). Delivered
// cells are final: they leave the outstanding set before deliver runs,
// and a ref absent from the returned slice is never re-dispatched, so
// no cell can land in the event log twice.
func (s *Service) runPeerBatch(ctx context.Context, peer string, refs []*clusterCellRef, result *SimulateResult, seed int64, tr *obs.Trace, root obs.SpanRef, deliver func(wi, si int, done CellResult)) []*clusterCellRef {
	span := tr.Start(root.ID(), "peer_batch",
		obs.Attr{Key: "peer", Value: peer},
		obs.Attr{Key: "cells", Value: strconv.Itoa(len(refs))},
	)
	defer span.End()

	// outstanding is confined to this goroutine: ExecuteCells invokes
	// onCell sequentially on the calling goroutine, in stream order.
	outstanding := make(map[cluster.Cell]*clusterCellRef, len(refs))
	b := cluster.Batch{
		Cells:  make([]cluster.Cell, 0, len(refs)),
		Scale:  result.Scale,
		Config: result.Config,
		Seed:   seed,
	}
	for _, r := range refs {
		outstanding[r.cell] = r
		b.Cells = append(b.Cells, r.cell)
	}

	err := s.cfg.Cluster.ExecuteCells(ctx, peer, tr.ID(), b, func(c cluster.Cell, payload json.RawMessage) {
		r, ok := outstanding[c]
		if !ok {
			// Unknown or duplicate coordinates: a confused worker.
			// Ignoring the update is always safe — the cell either
			// already delivered or was never asked for.
			return
		}
		var done CellResult
		if json.Unmarshal(payload, &done) != nil {
			// Undecodable payload: leave the ref outstanding so the
			// cell is stolen and re-executed (cells are deterministic
			// and cache-coalesced, so re-execution is safe; only
			// deliver must happen at most once).
			return
		}
		// The worker's identity fields are authoritative only for the
		// cells we asked it for; pin the coordinates we dispatched.
		done.Workload = c.Workload
		done.Scheme = c.Scheme
		delete(outstanding, c)
		s.metrics.cellSeconds.Observe(done.Seconds)
		if !done.Cached {
			// The peer paid for a real simulation; its measured cost
			// still prices this coordinator's admission gate.
			s.costs.observe(result.Config, result.Scale, done.Seconds)
		}
		deliver(r.wi, r.si, done)
	})
	if err != nil {
		span.Annotate(obs.Attr{Key: "error", Value: err.Error()})
		s.log.Warn("cluster batch failed; outstanding cells will be stolen",
			"peer", peer, "trace_id", tr.ID(),
			"outstanding", len(outstanding), "error", err)
	}
	var left []*clusterCellRef
	for _, r := range outstanding {
		r.tried = mergeTried(r.tried, peer)
		left = append(left, r)
	}
	return left
}

func mergeTried(tried map[string]bool, peer string) map[string]bool {
	if tried == nil {
		tried = map[string]bool{}
	}
	tried[peer] = true
	return tried
}
