package service

import (
	"encoding/json"

	"valleymap/internal/cache"
)

// Both service caches are instances of the generic content-addressed
// LRU with in-flight request coalescing (internal/cache); keys encode
// the input identity plus every option that affects the result.

// profileCache is the entropy-profile cache (content-addressed by trace
// identity + analysis options). Profiles all cost roughly the same to
// recompute per byte held, so it keeps exact LRU eviction (no weigher)
// and no spill tier — a profile is one streaming pass, not minutes of
// simulation.
type profileCache = cache.LRU[*ProfileResult]

func newProfileCache(capacity int, m *Metrics) *profileCache {
	c := cache.NewLRU(cache.LRUOptions[*ProfileResult]{
		Capacity: capacity,
		OnHit:    m.cacheHits.Inc,
		OnMiss:   m.cacheMisses.Inc,
	})
	m.gauge("valleyd_profile_cache_entries", "Resident profile-cache entries.",
		func() float64 { return float64(c.Len()) })
	return c
}

// simCache holds finished simulation cells keyed by the full cell
// coordinates (workload, scale, scheme, config, seed). Entries are the
// flattened metric set; sweep-relative fields (speedup, wall time) are
// recomputed per sweep.
//
// Unlike profiles, sweep cells differ in recompute cost by orders of
// magnitude (a full-scale 3D sweep cell vs a tiny BASE cell), so the
// cache evicts cost-aware — each cell carries its measured simulation
// seconds as weight — and, when a spill directory is configured,
// eviction spills to disk instead of discarding: seconds-to-minutes of
// simulation survive both memory pressure and restarts.
type simCache = cache.Tiered[*simCell]

// simCellBytes approximates a resident cell's footprint: the flattened
// metric struct plus key and bookkeeping. Cells are near-constant size,
// so Cost/Bytes ordering is dominated by the measured seconds.
const simCellBytes = 512

// newSimCache builds the tiered simulation-result cache over disk
// (which may be nil for a memory-only cache). Spill payloads are the
// cell's JSON encoding.
func newSimCache(capacity int, disk *cache.DiskStore, m *Metrics) *simCache {
	c, err := cache.NewTiered(cache.TieredOptions[*simCell]{
		Capacity: capacity,
		Disk:     disk,
		Encode:   func(c *simCell) ([]byte, error) { return json.Marshal(c) },
		Decode: func(p []byte) (*simCell, error) {
			var c simCell
			if err := json.Unmarshal(p, &c); err != nil {
				return nil, err
			}
			return &c, nil
		},
		Weigh: func(c *simCell) cache.Weight {
			return cache.Weight{Cost: c.Seconds, Bytes: simCellBytes}
		},
		OnHit: func(t cache.Tier) {
			m.simCacheHits.Inc()
			if t == cache.TierDisk {
				m.tierHitsDisk.Inc()
			} else {
				m.tierHitsMem.Inc()
			}
		},
		OnMiss: m.simCacheMisses.Inc,
	})
	if err != nil {
		// Encode/Decode are set above; the only error is a programming
		// mistake, not a runtime condition.
		panic(err)
	}
	m.gauge("valleyd_sim_cache_entries", "Resident simulation-result cache entries.",
		func() float64 { return float64(c.MemLen()) })
	if disk != nil {
		m.gauge("valleyd_cache_spill_entries", "Entry files resident in the spill directory.",
			func() float64 { return float64(disk.Len()) })
		m.gauge("valleyd_cache_spill_bytes", "Bytes resident in the spill directory.",
			func() float64 { return float64(disk.Bytes()) })
	}
	return c
}

// newSpillStore opens the spill directory with the service's metrics
// wired to the store's observers.
func newSpillStore(dir string, maxBytes int64, m *Metrics) (*cache.DiskStore, error) {
	return cache.OpenDisk(cache.DiskOptions{
		Dir:         dir,
		MaxBytes:    maxBytes,
		OnWrite:     m.spillWrites.Inc,
		OnWriteDrop: m.spillWriteDrops.Inc,
		OnEvict:     m.spillEvictions.Inc,
		OnError:     m.spillErrors.Inc,
	})
}
