package cache

// The result store. Besides the hardware models above, this package
// hosts LRU[V]: the content-addressed result cache behind valleyd's
// profile cache and its simulation cache, with an optional disk spill
// tier (disk.go). It grew out of internal/service and moved here so its
// eviction and spill policy is testable independent of the service's
// HTTP machinery.

import (
	"container/list"
	"fmt"
	"runtime/debug"
	"sync"
)

// PanicError is the error GetOrCompute returns when the computation
// panicked. It preserves the panic value and the stack captured at the
// panic site, so callers can account for it as a crash (and log the
// real stack) rather than an ordinary compute failure.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("cache: computation panicked: %v", e.Value)
}

// Tier labels where a GetOrCompute hit was served from.
type Tier int

const (
	// TierMem: served by the memory tier, including joining another
	// caller's in-flight computation.
	TierMem Tier = iota
	// TierDisk: read from the spill tier and promoted into memory.
	TierDisk
)

// LRUOptions configures an LRU.
type LRUOptions[V any] struct {
	// Capacity bounds memory-resident entries (values < 1 become 1).
	Capacity int
	// Disk is the spill tier. nil means memory-only: evictions discard.
	Disk *DiskStore
	// Encode / Decode serialize values for the spill tier. Both must be
	// set when Disk is; Decode must reject payloads it cannot fully
	// reconstruct.
	Encode func(V) ([]byte, error)
	Decode func([]byte) (V, error)
	// OnHit observes each hit with the tier that served it; OnMiss
	// observes each successful fresh computation. May be nil.
	OnHit  func(Tier)
	OnMiss func()
}

// LRU is a content-addressed LRU cache with in-flight request
// coalescing: concurrent lookups for the same key share one computation
// (the first caller computes, the rest block on it and count as hits),
// so a burst of identical requests costs one computation. Keys encode
// the input identity plus every option that affects the result.
// Eviction is exact LRU. With a disk tier, an evicted entry spills to
// disk instead of being discarded, and a memory miss reads through to
// disk before it computes. All methods are safe for concurrent use.
type LRU[V any] struct {
	mu       sync.Mutex
	opt      LRUOptions[V]
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
	inflight map[string]*flight[V]
}

type lruEntry[V any] struct {
	key string
	val V
}

type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// NewLRU builds an empty cache over opt.Disk, which the caller opens
// and which may be nil. It panics when given a disk tier without a
// codec.
func NewLRU[V any](opt LRUOptions[V]) *LRU[V] {
	if opt.Disk != nil && (opt.Encode == nil || opt.Decode == nil) {
		panic("cache: a disk tier requires Encode and Decode")
	}
	if opt.Capacity < 1 {
		opt.Capacity = 1
	}
	return &LRU[V]{
		opt:      opt,
		ll:       list.New(),
		items:    map[string]*list.Element{},
		inflight: map[string]*flight[V]{},
	}
}

// Len returns the number of memory-resident entries.
func (c *LRU[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// GetOrCompute returns the cached value for key, or runs fn once to
// produce it. hit is true when the value came from either tier or from
// joining another caller's in-flight computation. A memory miss reads
// through to disk inside the coalesced computation, so a burst of
// lookups for a spilled key costs one disk read. Only a key's own
// computation inserts it, and the entry that insert evicts is written
// to disk before GetOrCompute returns. Errors are not cached.
func (c *LRU[V]) GetOrCompute(key string, fn func() (V, error)) (val V, hit bool, err error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		v := el.Value.(*lruEntry[V]).val
		c.mu.Unlock()
		c.observeHit(TierMem)
		return v, true, nil
	}
	if f, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		<-f.done
		if f.err != nil {
			var zero V
			return zero, false, f.err
		}
		c.observeHit(TierMem)
		return f.val, true, nil
	}
	f := &flight[V]{done: make(chan struct{})}
	c.inflight[key] = f
	c.mu.Unlock()

	// A panicking computation must still unregister the flight and close
	// done, or every later lookup of this key would block forever.
	fromDisk := false
	func() {
		defer func() {
			if r := recover(); r != nil {
				f.err = &PanicError{Value: r, Stack: debug.Stack()}
			}
		}()
		if f.val, fromDisk = c.readDisk(key); !fromDisk {
			f.val, f.err = fn()
		}
	}()

	c.mu.Lock()
	delete(c.inflight, key)
	var evicted *lruEntry[V]
	if f.err == nil {
		c.items[key] = c.ll.PushFront(&lruEntry[V]{key: key, val: f.val})
		if c.ll.Len() > c.opt.Capacity {
			evicted = c.ll.Remove(c.ll.Back()).(*lruEntry[V])
			delete(c.items, evicted.key)
		}
	}
	c.mu.Unlock()
	close(f.done)
	if evicted != nil {
		c.spill(evicted.key, evicted.val)
	}

	switch {
	case f.err != nil:
		// A failed computation was never cacheable; counting it as a
		// miss would make client errors read as cache-sizing trouble in
		// /metrics.
	case fromDisk:
		c.observeHit(TierDisk)
	case c.opt.OnMiss != nil:
		c.opt.OnMiss()
	}
	return f.val, fromDisk, f.err
}

func (c *LRU[V]) observeHit(t Tier) {
	if c.opt.OnHit != nil {
		c.opt.OnHit(t)
	}
}

// readDisk reads key from the spill tier. A payload that no longer
// decodes (stale schema, damage below the checksum's radar) is dropped,
// and the key reads as a miss.
func (c *LRU[V]) readDisk(key string) (V, bool) {
	var zero V
	if c.opt.Disk == nil {
		return zero, false
	}
	payload, ok := c.opt.Disk.Get(key)
	if !ok {
		return zero, false
	}
	v, err := c.opt.Decode(payload)
	if err != nil {
		c.opt.Disk.Remove(key)
		return zero, false
	}
	return v, true
}

// spill writes one entry to the disk tier. An entry already there
// (typically one promoted and evicted again, its value unchanged) is
// not rewritten, since that would write identical bytes, but it counts
// as just written, so the janitor keeps it over colder entries. An
// unencodable value falls out of the cache, as it would without a disk
// tier.
func (c *LRU[V]) spill(key string, val V) {
	if c.opt.Disk == nil || c.opt.Disk.touch(key) {
		return
	}
	if payload, err := c.opt.Encode(val); err == nil {
		c.opt.Disk.Put(key, payload)
	}
}

// Contains reports whether key is resident in either tier, without
// promotion, recency updates or disk reads. Admission control uses it
// to price spilled repeat work as near-zero.
func (c *LRU[V]) Contains(key string) bool {
	c.mu.Lock()
	_, ok := c.items[key]
	c.mu.Unlock()
	return ok || (c.opt.Disk != nil && c.opt.Disk.Contains(key))
}

// SpillAll writes every memory-resident entry not already on disk to
// the spill tier, least recently used first, so the spill janitor's
// oldest-write-first order keeps the hottest entries longest. Service
// shutdown calls it so a restart finds the whole working set warm, not
// just what happened to be evicted.
func (c *LRU[V]) SpillAll() {
	if c.opt.Disk == nil {
		return
	}
	c.mu.Lock()
	entries := make([]lruEntry[V], 0, c.ll.Len())
	for el := c.ll.Back(); el != nil; el = el.Prev() {
		entries = append(entries, *el.Value.(*lruEntry[V]))
	}
	c.mu.Unlock()
	for _, e := range entries {
		c.spill(e.key, e.val)
	}
}
