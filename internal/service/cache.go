package service

import (
	"encoding/json"

	"valleymap/internal/cache"
	"valleymap/internal/experiments"
)

// Both service caches are instances of the content-addressed LRU with
// in-flight request coalescing (internal/cache); keys encode the input
// identity plus every option that affects the result.

// profileCache is the entropy-profile cache (content-addressed by trace
// identity + analysis options). It has no spill tier: a profile is one
// streaming pass, not minutes of simulation.
type profileCache = cache.LRU[*ProfileResult]

func newProfileCache(capacity int, m *Metrics) *profileCache {
	c := cache.NewLRU(cache.LRUOptions[*ProfileResult]{
		Capacity: capacity,
		OnHit:    func(cache.Tier) { m.cacheHits.Inc() },
		OnMiss:   m.cacheMisses.Inc,
	})
	m.gauge("valleyd_profile_cache_entries", "Resident profile-cache entries.",
		func() float64 { return float64(c.Len()) })
	return c
}

// simCache holds finished simulation cells keyed by the full cell
// coordinates (workload, scale, scheme, config, seed). Entries are the
// flattened metric set; sweep-relative fields (speedup, wall time) are
// recomputed per sweep. When a spill directory is configured, eviction
// spills to disk instead of discarding, so simulated cells survive both
// memory pressure and restarts.
type simCache = cache.LRU[experiments.ResultJSON]

// newSimCache builds the simulation-result cache over disk (which may
// be nil for a memory-only cache). Spill payloads are the cell's JSON
// encoding.
func newSimCache(capacity int, disk *cache.DiskStore, m *Metrics) *simCache {
	c := cache.NewLRU(cache.LRUOptions[experiments.ResultJSON]{
		Capacity: capacity,
		Disk:     disk,
		Encode:   func(r experiments.ResultJSON) ([]byte, error) { return json.Marshal(r) },
		Decode: func(p []byte) (experiments.ResultJSON, error) {
			var r experiments.ResultJSON
			err := json.Unmarshal(p, &r)
			return r, err
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
	m.gauge("valleyd_sim_cache_entries", "Resident simulation-result cache entries.",
		func() float64 { return float64(c.Len()) })
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
		Dir:      dir,
		MaxBytes: maxBytes,
		OnWrite:  m.spillWrites.Inc,
		OnEvict:  m.spillEvictions.Inc,
		OnError:  m.spillErrors.Inc,
	})
}
