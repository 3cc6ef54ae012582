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
	"context"
	"encoding/json"
	"strconv"
	"sync"

	"valleymap/internal/cluster"
	"valleymap/internal/obs"
)

// remoteRounds bounds how many remote attempts a cell gets before the
// coordinator executes it locally. Two rounds means: the owner, then
// one steal onto the next-ranked healthy peer.
const remoteRounds = 2

// clusterCellRef tracks one cell through remote dispatch: its grid
// index and the peers that already failed it.
type clusterCellRef struct {
	i     int
	tried map[string]bool
}

// dispatchCluster shards the listed cells of a sweep across the cluster
// client's healthy peers and returns the cells it leaves to the local
// pool: all of them when no peer is reachable at entry, else those no
// remote round could place (none once the sweep is canceled). Every
// other cell has been delivered, or abandoned to cancellation, by the
// time it returns.
func (s *Service) dispatchCluster(ctx context.Context, sw *sweep, cells []int) []int {
	cl := s.cfg.Cluster
	if len(cl.Healthy()) == 0 {
		// Every peer is in its down cooldown: degrade to plain local
		// execution rather than burning rounds on known-dead peers.
		sw.root.Annotate(obs.Attr{Key: "cluster", Value: "all_peers_down"})
		return cells
	}
	sw.root.Annotate(obs.Attr{Key: "cluster", Value: "sharded"})

	pending := make([]*clusterCellRef, len(cells))
	for j, i := range cells {
		pending[j] = &clusterCellRef{i: i}
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
			for _, p := range cluster.Rank(sw.plan.cells[r.i].key, healthy) {
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
				left := s.runPeerBatch(ctx, sw, peer, refs)
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
	// local pool through the exact same cell path a single-node sweep
	// uses. Stolen-to-local cells count as both a steal and a local
	// fallback.
	if ctx.Err() != nil {
		return nil
	}
	local := make([]int, 0, len(pending))
	for _, r := range pending {
		if len(r.tried) > 0 {
			s.metrics.clusterSteals.Inc()
		}
		s.metrics.clusterLocalCells.Inc()
		local = append(local, r.i)
	}
	return local
}

// runPeerBatch executes one peer's share of a round and returns the
// refs the peer did not deliver (to be stolen next round). Delivered
// cells are final: they leave the outstanding set before deliver runs,
// and a ref absent from the returned slice is never re-dispatched, so
// no cell can land in the event log twice.
func (s *Service) runPeerBatch(ctx context.Context, sw *sweep, peer string, refs []*clusterCellRef) []*clusterCellRef {
	span := sw.tr.Start(sw.root.ID(), "peer_batch",
		obs.Attr{Key: "peer", Value: peer},
		obs.Attr{Key: "cells", Value: strconv.Itoa(len(refs))},
	)
	defer span.End()

	// outstanding is confined to this goroutine: ExecuteCells invokes
	// onCell sequentially on the calling goroutine, in stream order. Its
	// keys are unique because a plan lists each workload and scheme once.
	rc := sw.plan.rc
	outstanding := make(map[cluster.Cell]*clusterCellRef, len(refs))
	b := cluster.Batch{
		Cells:  make([]cluster.Cell, 0, len(refs)),
		Scale:  rc.scaleName,
		Config: rc.cfgName,
		Seed:   rc.seed,
	}
	for _, r := range refs {
		ce := &sw.plan.cells[r.i]
		c := cluster.Cell{Workload: ce.sp.Abbr, Scheme: string(ce.sc)}
		outstanding[c] = r
		b.Cells = append(b.Cells, c)
	}

	err := s.cfg.Cluster.ExecuteCells(ctx, peer, sw.tr.ID(), b, func(c cluster.Cell, payload json.RawMessage) {
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
			s.costs.observe(rc.cfgName, rc.scaleName, done.Seconds)
		}
		sw.deliver(r.i, done)
	})
	if err != nil {
		span.Annotate(obs.Attr{Key: "error", Value: err.Error()})
		s.log.Warn("cluster batch failed; outstanding cells will be stolen",
			"peer", peer, "trace_id", sw.tr.ID(),
			"outstanding", len(outstanding), "error", err)
	}
	var left []*clusterCellRef
	for _, r := range outstanding {
		if r.tried == nil {
			r.tried = map[string]bool{}
		}
		r.tried[peer] = true
		left = append(left, r)
	}
	return left
}
