// Package cache has two halves.
//
// The hardware half (cache.go) models the set-associative, write-back,
// write-allocate caches of the simulated GPU (Table I) — per-SM L1D,
// LLC slices, MSHR bookkeeping.
//
// The service half is the tiered content-addressed result store behind
// valleyd's profile and simulation caches:
//
//	LRU[V]      (lru.go)      single-lock cost-aware LRU with in-flight
//	                          coalescing and *PanicError recovery
//	DiskStore   (disk.go)     content-addressed spill tier: one
//	                          checksummed file per entry, async
//	                          write-behind, byte-budget janitor
//	Tiered[V]   (tiered.go)   the two glued together
//
// One lock guards the whole LRU, so Capacity is exact and the
// cost-aware victim scan always sees the coldest entries of the whole
// cache.
//
// # Two-tier contract
//
// Promotion: a memory miss reads through to disk inside the LRU's
// singleflight, so one burst of lookups for a spilled key performs one
// disk read, and the decoded value is immediately resident in memory
// again (a TierDisk hit). Capacity evictions flow the other way:
// instead of discarding, the evicted entry is serialized and enqueued
// for spilling. Between the two, a key's value migrates but is never
// in neither tier while it is still wanted.
//
// Write-behind ordering: DiskStore.Put makes an entry readable the
// moment it is accepted — Get and Contains consult the pending queue
// before the on-disk index — so the asynchronous write is never a
// visibility gap. The queue is bounded; on overflow the oldest pending
// write is dropped and counted. A drop loses cache warmth (that key
// reverts to a miss and recomputes), never correctness.
//
// Crash semantics: every entry file is written to a temp file and
// atomically renamed into place, and carries a SHA-256 over its framed
// bytes. After a crash the directory holds only complete old files,
// complete new files, and possibly torn temp or torn renamed files;
// opening the store re-scans the fan-out directories, validates every
// entry, and deletes anything damaged. At read time a failed checksum,
// a wrong key (digest collision or foreign file), or a read error
// deletes the file and reads as a miss. A cache is always allowed to
// forget; it is never allowed to lie — no damage mode surfaces as an
// error to a sweep, and none can serve corrupt bytes as a result.
package cache
