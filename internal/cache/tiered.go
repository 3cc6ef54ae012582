package cache

// Tiered glues the memory LRU (tier 1) to the disk spill store
// (tier 2). Capacity evictions from memory spill to disk instead of
// being discarded: the evicting call writes the entry file before it
// returns. Misses read through to disk and promote back into memory
// under the LRU's singleflight, so a burst of lookups for a spilled
// key costs one disk read. Any spill damage — failed write, torn file,
// read error — degrades to a recompute, never an error: the disk tier
// only ever adds warmth.

import "fmt"

// Tier labels where a GetOrCompute hit was served from.
type Tier int

const (
	// TierMiss: the value was computed fresh (not a hit).
	TierMiss Tier = iota
	// TierMem: served by the in-memory LRU (including joining
	// another caller's in-flight computation).
	TierMem
	// TierDisk: read from the spill store and promoted into memory.
	TierDisk
)

func (t Tier) String() string {
	switch t {
	case TierMem:
		return "mem"
	case TierDisk:
		return "disk"
	default:
		return "miss"
	}
}

// TieredOptions configures a Tiered cache.
type TieredOptions[V any] struct {
	// Capacity / Weigh configure the memory tier (see LRUOptions).
	Capacity int
	Weigh    func(V) Weight
	// Encode / Decode serialize values for the spill tier. Both must be
	// set when Disk is; Decode must reject payloads it cannot fully
	// reconstruct.
	Encode func(V) ([]byte, error)
	Decode func([]byte) (V, error)
	// Disk is the spill store. nil means memory-only: evictions
	// discard, and Tiered behaves exactly like LRU.
	Disk *DiskStore
	// OnHit observes each hit with the tier that served it; OnMiss
	// observes each successful fresh computation. May be nil.
	OnHit  func(Tier)
	OnMiss func()
}

// Tiered is the two-tier content-addressed result store. All methods
// are safe for concurrent use.
type Tiered[V any] struct {
	opt TieredOptions[V]
	mem *LRU[V]
}

// NewTiered builds a tiered cache over opt.Disk, which the caller
// opens and which may be nil.
func NewTiered[V any](opt TieredOptions[V]) (*Tiered[V], error) {
	if opt.Disk != nil && (opt.Encode == nil || opt.Decode == nil) {
		return nil, fmt.Errorf("cache: a disk tier requires Encode and Decode")
	}
	t := &Tiered[V]{opt: opt}
	t.mem = NewLRU(LRUOptions[V]{
		Capacity: opt.Capacity,
		Weigh:    opt.Weigh,
		OnEvict:  t.spill,
	})
	return t, nil
}

// spill is the memory tier's eviction hook: serialize the entry and
// write it to the disk tier. Entries already resident on disk
// (typically promoted-then-evicted ones whose value never changed)
// are skipped — re-spilling identical bytes buys nothing.
func (t *Tiered[V]) spill(key string, val V, w Weight) {
	if t.opt.Disk == nil {
		return
	}
	if t.opt.Disk.Contains(key) {
		return
	}
	payload, err := t.opt.Encode(val)
	if err != nil {
		// Unencodable values silently fall out of the cache, exactly as
		// they would without a spill tier.
		return
	}
	t.opt.Disk.Put(key, payload, w.Cost)
}

// GetOrCompute returns the value for key and the tier that served it:
// TierMem for a memory hit (or a joined in-flight computation),
// TierDisk for a spill hit promoted back into memory, TierMiss for a
// fresh computation. Concurrent callers for one key coalesce on one
// computation, so a spilled key is read off disk once per burst.
// Errors are not cached, and panics surface as *PanicError — exactly
// the LRU semantics.
func (t *Tiered[V]) GetOrCompute(key string, fn func() (V, error)) (V, Tier, error) {
	// fromDisk is only written inside the compute closure, which the
	// LRU runs at most once per miss (coalesced callers never enter it),
	// and is read only after the LRU call returns.
	fromDisk := false
	val, hit, err := t.mem.GetOrCompute(key, func() (V, error) {
		if t.opt.Disk != nil {
			if payload, _, ok := t.opt.Disk.Get(key); ok {
				if v, derr := t.opt.Decode(payload); derr == nil {
					fromDisk = true
					return v, nil
				}
				// Undecodable payload: stale schema or silent damage.
				// Drop it and recompute.
				t.opt.Disk.Remove(key)
			}
		}
		return fn()
	})
	tier := TierMiss
	switch {
	case hit:
		tier = TierMem
	case err == nil && fromDisk:
		tier = TierDisk
	}
	if err == nil {
		if tier == TierMiss {
			if t.opt.OnMiss != nil {
				t.opt.OnMiss()
			}
		} else if t.opt.OnHit != nil {
			t.opt.OnHit(tier)
		}
	}
	return val, tier, err
}

// Add inserts (or refreshes) an entry in the memory tier, exactly like
// LRU.Add. It does not write to disk; the entry spills if and when it
// is evicted.
func (t *Tiered[V]) Add(key string, val V) { t.mem.Add(key, val) }

// Peek reports the memory-resident value without touching recency,
// observers, or the disk tier.
func (t *Tiered[V]) Peek(key string) (V, bool) { return t.mem.Peek(key) }

// Contains reports whether key is resident in either tier, without
// promotion, recency updates, or disk reads. Admission control uses it
// to price spilled repeat work as near-zero.
func (t *Tiered[V]) Contains(key string) bool {
	if _, ok := t.mem.Peek(key); ok {
		return true
	}
	return t.opt.Disk != nil && t.opt.Disk.Contains(key)
}

// MemLen reports memory-resident entries.
func (t *Tiered[V]) MemLen() int { return t.mem.Len() }

// DiskLen reports landed spill entries (0 without a disk tier).
func (t *Tiered[V]) DiskLen() int {
	if t.opt.Disk == nil {
		return 0
	}
	return t.opt.Disk.Len()
}

// SpillAll writes every memory-resident entry not already on disk to
// the spill tier. Service shutdown calls it so a restart finds the
// whole working set warm, not just what happened to be evicted.
func (t *Tiered[V]) SpillAll() {
	if t.opt.Disk == nil {
		return
	}
	for _, e := range t.mem.Entries() {
		w := Weight{Cost: 1, Bytes: 1}
		if t.opt.Weigh != nil {
			w = t.opt.Weigh(e.Val)
		}
		t.spill(e.Key, e.Val, w)
	}
}
