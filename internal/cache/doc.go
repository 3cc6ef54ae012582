// Package cache has two halves.
//
// The hardware half (cache.go) models the set-associative, write-back,
// write-allocate caches of the simulated GPU (Table I): the per-SM L1D
// and the LLC slices.
//
// The service half is the content-addressed result store behind
// valleyd's profile and simulation caches:
//
//	LRU[V]      (lru.go)      single-lock exact LRU with in-flight
//	                          coalescing, *PanicError recovery and an
//	                          optional disk tier
//	DiskStore   (disk.go)     content-addressed spill tier: one
//	                          checksummed file per entry, written
//	                          inline, oldest-write-first byte-budget
//	                          janitor
//
// One lock guards the whole memory tier, so Capacity is exact and
// eviction always takes the least recently used entry of the whole
// cache. Only a key's own computation inserts it, so the cache never
// holds more than Capacity entries, even for a moment.
//
// # Two-tier contract
//
// Promotion: a memory miss reads through to disk inside the LRU's
// singleflight, so one burst of lookups for a spilled key performs one
// disk read, and the decoded value is immediately resident in memory
// again (a TierDisk hit). Capacity evictions flow the other way:
// instead of discarding, the evicted entry is serialized and spilled.
// Between the two, a key's value migrates but is never in neither tier
// while it is still wanted. The byte-budget janitor deletes the oldest
// writes first, and an entry evicted again while its file is still on
// disk is not rewritten but counts as just written, so a promoted
// entry outlives colder ones.
//
// Inline writes: the evicting call writes the entry file before it
// returns — DiskStore.Put lands the file and indexes it under the
// store's lock. Every change to the spill directory (a write, a
// removal, a janitor eviction, a damaged file's deletion) holds that
// lock, so the index always describes the directory, and a lookup that
// reaches Get while its key is being written waits for the file
// instead of recomputing. Files are read outside the lock. A failed
// write loses cache warmth (that key reverts to a miss and
// recomputes), never correctness.
//
// Crash semantics: every entry file is written to a temp file and
// atomically renamed into place, and carries a SHA-256 over its framed
// bytes. After a crash the directory holds only complete old files,
// complete new files, and possibly torn temp or torn renamed files;
// opening the store re-scans the fan-out directories, validates every
// entry, and deletes anything damaged, including a complete entry
// still under its temp name. At read time a failed checksum, a wrong
// key (digest collision or foreign file), or a read error deletes the
// file and reads as a miss. A cache is always allowed to forget; it
// is never allowed to lie — no damage mode surfaces as an error to a
// sweep, and none can serve corrupt bytes as a result.
package cache
