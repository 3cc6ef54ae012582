package cache

// Generic service-level LRU. Besides the hardware models above, this
// package hosts LRU[V]: the content-addressed result cache behind
// valleyd's profile cache and the memory tier of its simulation cache.
// It grew out of internal/service and moved here so its eviction policy
// is reusable (and testable) independent of the service's HTTP
// machinery.

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

// Weight is the eviction weight of one cache entry: Cost is how
// expensive the entry was to produce (the service uses measured wall
// seconds), Bytes its approximate resident size. Eviction prefers the
// lowest Cost/Bytes density — the cheapest-to-recompute bytes go first.
type Weight struct {
	Cost  float64
	Bytes int
}

// evictScan bounds the eviction victim search: only the evictScan
// least-recently-used entries are candidates, so one eviction is O(1)-ish
// while still letting an order-of-magnitude-more-expensive entry at the
// cold tail outlive cheap neighbours. Recency stays the first-order
// signal; cost breaks ties inside the cold tail.
const evictScan = 16

// LRUOptions configures an LRU.
type LRUOptions[V any] struct {
	// Capacity bounds resident entries (values < 1 become 1).
	Capacity int
	// OnHit / OnMiss observe lookup outcomes (may be nil).
	OnHit, OnMiss func()
	// Weigh returns an entry's eviction weight, sampled once at insert.
	// nil means every entry weighs the same, which makes eviction exact
	// LRU (the profile cache's policy).
	Weigh func(V) Weight
	// OnEvict observes capacity evictions (may be nil). It runs on the
	// inserting goroutine after the cache lock is released, so it may
	// take locks of its own and do I/O (the spill tier writes the entry
	// file here) but must not call back into this cache.
	OnEvict func(key string, val V, w Weight)
}

// LRU is a content-addressed LRU cache with in-flight request
// coalescing: concurrent lookups for the same key share one computation
// (the first caller computes, the rest block on it and count as hits),
// so a burst of identical requests costs one computation. Keys encode
// the input identity plus every option that affects the result. With a
// Weigh function, eviction is cost-aware: among the least-recently-used
// entries, the cheapest cost-per-byte is evicted first.
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
	w   Weight
}

type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// NewLRU builds an empty cache.
func NewLRU[V any](opt LRUOptions[V]) *LRU[V] {
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

// Len returns the number of resident entries.
func (c *LRU[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// GetOrCompute returns the cached value for key, or runs fn once to
// produce it. hit is true when the value came from the cache or from
// joining another caller's in-flight computation. Errors are not cached.
func (c *LRU[V]) GetOrCompute(key string, fn func() (V, error)) (val V, hit bool, err error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		v := el.Value.(*lruEntry[V]).val
		c.mu.Unlock()
		if c.opt.OnHit != nil {
			c.opt.OnHit()
		}
		return v, true, nil
	}
	if f, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		<-f.done
		if f.err != nil {
			var zero V
			return zero, false, f.err
		}
		if c.opt.OnHit != nil {
			c.opt.OnHit()
		}
		return f.val, true, nil
	}
	f := &flight[V]{done: make(chan struct{})}
	c.inflight[key] = f
	c.mu.Unlock()

	// A panicking computation must still unregister the flight and close
	// done, or every later lookup of this key would block forever.
	func() {
		defer func() {
			if r := recover(); r != nil {
				f.err = &PanicError{Value: r, Stack: debug.Stack()}
			}
		}()
		f.val, f.err = fn()
	}()

	c.mu.Lock()
	delete(c.inflight, key)
	var evicted []lruEntry[V]
	if f.err == nil {
		evicted = c.insertLocked(key, f.val)
	}
	c.mu.Unlock()
	close(f.done)
	c.notifyEvicted(evicted)

	// A failed computation was never cacheable; counting it as a miss
	// would make client errors read as cache-sizing trouble in /metrics.
	if f.err == nil && c.opt.OnMiss != nil {
		c.opt.OnMiss()
	}
	return f.val, false, f.err
}

// Add inserts (or refreshes) an entry without a computation, making it
// the most recently used. Capacity evictions run exactly as for a
// computed insert.
func (c *LRU[V]) Add(key string, val V) {
	c.mu.Lock()
	evicted := c.insertLocked(key, val)
	c.mu.Unlock()
	c.notifyEvicted(evicted)
}

// notifyEvicted delivers eviction callbacks outside the cache lock.
func (c *LRU[V]) notifyEvicted(evicted []lruEntry[V]) {
	if c.opt.OnEvict == nil {
		return
	}
	for i := range evicted {
		c.opt.OnEvict(evicted[i].key, evicted[i].val, evicted[i].w)
	}
}

// Peek reports the resident value for key without touching recency or
// the hit/miss observers.
func (c *LRU[V]) Peek(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		return el.Value.(*lruEntry[V]).val, true
	}
	var zero V
	return zero, false
}

// Entry is one resident (key, value) pair, as Entries reports it.
type Entry[V any] struct {
	Key string
	Val V
}

// Entries returns the resident entries in eviction order — least
// recently used first — so feeding them back through Add in order
// reconstructs both contents and recency.
func (c *LRU[V]) Entries() []Entry[V] {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Entry[V], 0, c.ll.Len())
	for el := c.ll.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*lruEntry[V])
		out = append(out, Entry[V]{Key: e.key, Val: e.val})
	}
	return out
}

// insertLocked installs (or refreshes) an entry and returns the entries
// evicted to make room, for the caller to report once the lock is
// dropped.
func (c *LRU[V]) insertLocked(key string, val V) []lruEntry[V] {
	w := Weight{Cost: 1, Bytes: 1}
	if c.opt.Weigh != nil {
		w = c.opt.Weigh(val)
		if w.Bytes < 1 {
			w.Bytes = 1
		}
		if w.Cost < 0 {
			w.Cost = 0
		}
	}
	if el, ok := c.items[key]; ok {
		e := el.Value.(*lruEntry[V])
		e.val = val
		e.w = w
		c.ll.MoveToFront(el)
		return nil
	}
	c.items[key] = c.ll.PushFront(&lruEntry[V]{key: key, val: val, w: w})
	var evicted []lruEntry[V]
	for c.ll.Len() > c.opt.Capacity {
		if e, ok := c.evictLocked(); ok {
			evicted = append(evicted, e)
		}
	}
	return evicted
}

// evictLocked removes one entry: among the evictScan least-recently-used
// entries, the one with the lowest cost density (Cost/Bytes). Strict
// comparison means uniform weights always evict the list tail — exact
// LRU — and ties among weighted entries favor the colder entry. The
// front element is never a candidate: at eviction time it is the entry
// whose insert triggered the eviction, and letting a cheap newcomer
// evict itself would keep it from ever becoming resident (every repeat
// lookup would recompute it).
func (c *LRU[V]) evictLocked() (lruEntry[V], bool) {
	victim := c.ll.Back()
	if victim == nil {
		return lruEntry[V]{}, false
	}
	density := func(el *list.Element) float64 {
		e := el.Value.(*lruEntry[V])
		return e.w.Cost / float64(e.w.Bytes)
	}
	scan := evictScan
	if max := c.ll.Len() - 1; max < scan {
		scan = max
	}
	best := density(victim)
	for el, n := victim.Prev(), 1; el != nil && n < scan; el, n = el.Prev(), n+1 {
		if d := density(el); d < best {
			victim, best = el, d
		}
	}
	e := victim.Value.(*lruEntry[V])
	c.ll.Remove(victim)
	delete(c.items, e.key)
	return *e, true
}
