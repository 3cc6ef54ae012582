package cache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// fill inserts keys with per-key weights through the compute path.
func fill(t *testing.T, c *LRU[string], keys []string) {
	t.Helper()
	for _, k := range keys {
		k := k
		if _, hit, err := c.GetOrCompute(k, func() (string, error) { return "v:" + k, nil }); err != nil || hit {
			t.Fatalf("inserting %q: hit=%v err=%v", k, hit, err)
		}
	}
}

func resident(c *LRU[string]) map[string]bool {
	out := map[string]bool{}
	for _, e := range c.Entries() {
		out[e.Key] = true
	}
	return out
}

// TestLRUCostWeightedEviction is the table-driven contract of the
// cost-aware policy: among the least-recently-used entries, the lowest
// Cost/Bytes density goes first; without a weigher, eviction is exact
// LRU.
func TestLRUCostWeightedEviction(t *testing.T) {
	cases := []struct {
		name     string
		capacity int
		weights  map[string]Weight // nil entry = unweighted cache
		insert   []string
		touch    []string // Gets between inserts and the overflow insert
		overflow []string
		evicted  []string
		kept     []string
	}{
		{
			name:     "unweighted is exact LRU",
			capacity: 3,
			insert:   []string{"a", "b", "c"},
			overflow: []string{"d"},
			evicted:  []string{"a"},
			kept:     []string{"b", "c", "d"},
		},
		{
			name:     "expensive tail entry survives, cheap neighbor goes",
			capacity: 3,
			weights:  map[string]Weight{"slow": {Cost: 60, Bytes: 512}, "quick": {Cost: 0.001, Bytes: 512}, "mid": {Cost: 1, Bytes: 512}, "new": {Cost: 1, Bytes: 512}},
			insert:   []string{"slow", "quick", "mid"},
			overflow: []string{"new"},
			evicted:  []string{"quick"},
			kept:     []string{"slow", "mid", "new"},
		},
		{
			name:     "density not raw cost: big cheap bytes go first",
			capacity: 2,
			weights:  map[string]Weight{"bulky": {Cost: 2, Bytes: 4096}, "dense": {Cost: 1, Bytes: 64}, "new": {Cost: 1, Bytes: 64}},
			insert:   []string{"bulky", "dense"},
			overflow: []string{"new"},
			evicted:  []string{"bulky"}, // 2/4096 << 1/64
			kept:     []string{"dense", "new"},
		},
		{
			name:     "equal weights fall back to recency",
			capacity: 3,
			weights:  map[string]Weight{"a": {Cost: 1, Bytes: 1}, "b": {Cost: 1, Bytes: 1}, "c": {Cost: 1, Bytes: 1}, "d": {Cost: 1, Bytes: 1}},
			insert:   []string{"a", "b", "c"},
			touch:    []string{"a"},
			overflow: []string{"d"},
			evicted:  []string{"b"},
			kept:     []string{"a", "c", "d"},
		},
		{
			name:     "repeated overflow drains cheap entries in cost order",
			capacity: 3,
			weights: map[string]Weight{
				"gold": {Cost: 100, Bytes: 512}, "cheap1": {Cost: 0.01, Bytes: 512}, "cheap2": {Cost: 0.02, Bytes: 512},
				"n1": {Cost: 5, Bytes: 512}, "n2": {Cost: 5, Bytes: 512},
			},
			insert:   []string{"gold", "cheap1", "cheap2"},
			overflow: []string{"n1", "n2"},
			evicted:  []string{"cheap1", "cheap2"},
			kept:     []string{"gold", "n1", "n2"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opt := LRUOptions[string]{Capacity: tc.capacity}
			if tc.weights != nil {
				opt.Weigh = func(v string) Weight {
					// Values are "v:<key>"; weigh by key.
					return tc.weights[v[2:]]
				}
			}
			c := NewLRU(opt)
			fill(t, c, tc.insert)
			for _, k := range tc.touch {
				if _, ok := c.Peek(k); !ok {
					t.Fatalf("touch target %q not resident", k)
				}
				c.GetOrCompute(k, func() (string, error) { return "v:" + k, nil })
			}
			fill(t, c, tc.overflow)

			if got := c.Len(); got != tc.capacity {
				t.Fatalf("len = %d, want capacity %d", got, tc.capacity)
			}
			res := resident(c)
			for _, k := range tc.evicted {
				if res[k] {
					t.Errorf("%q should have been evicted; resident: %v", k, res)
				}
			}
			for _, k := range tc.kept {
				if !res[k] {
					t.Errorf("%q should have survived; resident: %v", k, res)
				}
			}
		})
	}
}

// TestLRUNewcomerIsNeverItsOwnVictim: on a small cache (capacity below
// the scan window) full of expensive entries, a newly inserted cheap
// entry must still become resident — the eviction scan may not pick
// the just-inserted front element, or a cheap-but-hot key would be
// recomputed on every single lookup forever.
func TestLRUNewcomerIsNeverItsOwnVictim(t *testing.T) {
	weights := map[string]Weight{
		"exp1":  {Cost: 100, Bytes: 1},
		"exp2":  {Cost: 50, Bytes: 1},
		"cheap": {Cost: 0.001, Bytes: 1},
	}
	c := NewLRU(LRUOptions[string]{Capacity: 2, Weigh: func(v string) Weight { return weights[v[2:]] }})
	fill(t, c, []string{"exp1", "exp2", "cheap"})
	if _, ok := c.Peek("cheap"); !ok {
		t.Fatalf("cheap newcomer evicted itself; resident: %v", resident(c))
	}
	// The victim was the lower-density old entry, not the newcomer.
	if _, ok := c.Peek("exp2"); ok {
		t.Errorf("exp2 (density 50) survived over exp1 (density 100); resident: %v", resident(c))
	}
	// And the now-resident cheap entry hits instead of recomputing.
	if _, hit, _ := c.GetOrCompute("cheap", func() (string, error) { return "v:cheap", nil }); !hit {
		t.Error("cheap entry not resident after insert")
	}
	// Capacity 1: the degenerate case must still admit every newcomer.
	c1 := NewLRU(LRUOptions[string]{Capacity: 1, Weigh: func(v string) Weight { return weights[v[2:]] }})
	fill(t, c1, []string{"exp1", "cheap"})
	if _, ok := c1.Peek("cheap"); !ok {
		t.Error("capacity-1 cache rejected its newest entry")
	}
}

// TestLRUWeightSanitized: non-positive bytes and negative cost from a
// weigher must not divide by zero or produce negative densities that
// shield entries forever.
func TestLRUWeightSanitized(t *testing.T) {
	c := NewLRU(LRUOptions[string]{Capacity: 2, Weigh: func(v string) Weight {
		return Weight{Cost: -5, Bytes: 0}
	}})
	fill(t, c, []string{"a", "b", "c"})
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
}

// TestLRUEntriesRoundTrip: Entries (LRU-first) fed back through Add
// reconstructs contents and recency.
func TestLRUEntriesRoundTrip(t *testing.T) {
	src := NewLRU(LRUOptions[string]{Capacity: 4})
	fill(t, src, []string{"a", "b", "c", "d"})
	src.GetOrCompute("a", func() (string, error) { return "v:a", nil }) // a becomes MRU

	entries := src.Entries()
	if len(entries) != 4 {
		t.Fatalf("entries = %d, want 4", len(entries))
	}
	if entries[0].Key != "b" || entries[len(entries)-1].Key != "a" {
		t.Fatalf("entries order %v, want LRU-first (b … a)", entries)
	}

	dst := NewLRU(LRUOptions[string]{Capacity: 4})
	for _, e := range entries {
		dst.Add(e.Key, e.Val)
	}
	if got, ok := dst.Peek("a"); !ok || got != "v:a" {
		t.Fatalf("a after round trip: %q %v", got, ok)
	}
	// Overflowing the rebuilt cache must evict the original LRU order:
	// b first, not a.
	fill(t, dst, []string{"e"})
	res := resident(dst)
	if res["b"] || !res["a"] {
		t.Errorf("recency lost in round trip; resident: %v", res)
	}
}

// TestLRUCoalescingAndErrors re-pins the behavior the service relied on
// before the move to internal/cache: in-flight coalescing, uncached
// errors, panic recovery as *PanicError.
func TestLRUCoalescingAndErrors(t *testing.T) {
	var computes atomic.Int64
	var hits atomic.Int64
	c := NewLRU(LRUOptions[int]{Capacity: 8, OnHit: func() { hits.Add(1) }})
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.GetOrCompute("k", func() (int, error) {
				computes.Add(1)
				<-gate
				return 42, nil
			})
		}()
	}
	close(gate)
	wg.Wait()
	if computes.Load() != 1 {
		t.Errorf("computed %d times, want 1", computes.Load())
	}
	if hits.Load() != 9 {
		t.Errorf("hits = %d, want 9", hits.Load())
	}

	boom := errors.New("boom")
	if _, _, err := c.GetOrCompute("err", func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if _, hit, _ := c.GetOrCompute("err", func() (int, error) { return 1, nil }); hit {
		t.Error("errors must not be cached")
	}
	_, _, err := c.GetOrCompute("panic", func() (int, error) { panic("ow") })
	var pe *PanicError
	if !errors.As(err, &pe) || fmt.Sprint(pe.Value) != "ow" {
		t.Fatalf("err = %v, want *PanicError{ow}", err)
	}
	if _, hit, err := c.GetOrCompute("panic", func() (int, error) { return 2, nil }); hit || err != nil {
		t.Errorf("retry after panic: hit=%v err=%v", hit, err)
	}
}

// TestLRUCoalescing: every concurrent caller of one key receives the
// single computation's value, not just a nil error.
func TestLRUCoalescing(t *testing.T) {
	c := NewLRU(LRUOptions[int]{Capacity: 64})
	var computes atomic.Int64
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := c.GetOrCompute("hot", func() (int, error) {
				computes.Add(1)
				<-gate
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("GetOrCompute = (%d, %v)", v, err)
			}
		}()
	}
	close(gate)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Errorf("%d computations for one key, want 1 (coalescing broken)", n)
	}
}

// TestLRUPanicPropagation: a panicking computation surfaces as
// *PanicError and the next caller computes a fresh value.
func TestLRUPanicPropagation(t *testing.T) {
	c := NewLRU(LRUOptions[int]{Capacity: 8})
	_, _, err := c.GetOrCompute("boom", func() (int, error) { panic("kapow") })
	var pe *PanicError
	if !errors.As(err, &pe) || fmt.Sprint(pe.Value) != "kapow" {
		t.Fatalf("err = %v, want *PanicError{kapow}", err)
	}
	v, _, err := c.GetOrCompute("boom", func() (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("panicked entry was cached: got (%d, %v), want fresh 7", v, err)
	}
}

// TestLRUEvictScanWindow: an expensive entry deeper than the scan
// window is still protected once eviction pressure walks the tail to
// it — i.e. the window bounds work per eviction, not correctness.
func TestLRUEvictScanWindow(t *testing.T) {
	weights := map[string]Weight{}
	c := NewLRU(LRUOptions[string]{Capacity: evictScan + 4, Weigh: func(v string) Weight {
		return weights[v[2:]]
	}})
	// One precious entry buried at the very bottom of the LRU list,
	// then a tail of cheap entries longer than the scan window.
	weights["gold"] = Weight{Cost: 1000, Bytes: 1}
	fill(t, c, []string{"gold"})
	var cheap []string
	for i := 0; i < evictScan+3; i++ {
		k := fmt.Sprintf("cheap%d", i)
		weights[k] = Weight{Cost: 0.001, Bytes: 1}
		cheap = append(cheap, k)
	}
	fill(t, c, cheap)
	// Push enough new mid-cost entries to force many evictions.
	for i := 0; i < evictScan; i++ {
		k := fmt.Sprintf("new%d", i)
		weights[k] = Weight{Cost: 1, Bytes: 1}
		fill(t, c, []string{k})
	}
	if _, ok := c.Peek("gold"); !ok {
		t.Error("high-cost entry evicted while cheaper candidates were in the scan window")
	}
}

// TestLRUOnEvictDelivery: every capacity eviction reaches OnEvict with
// the entry's key and its Weigh-sampled weight, and the resident count
// never exceeds Capacity.
func TestLRUOnEvictDelivery(t *testing.T) {
	evicted := map[string]Weight{}
	c := NewLRU(LRUOptions[int]{
		Capacity: 4,
		Weigh:    func(v int) Weight { return Weight{Cost: float64(v), Bytes: 8} },
		OnEvict:  func(key string, _ int, w Weight) { evicted[key] = w },
	})
	for i := 0; i < 32; i++ {
		c.Add(fmt.Sprintf("k%d", i), i+1)
	}
	if c.Len() != 4 || len(evicted) != 28 {
		t.Fatalf("%d evicted + %d resident, want 28 + 4", len(evicted), c.Len())
	}
	for k, w := range evicted {
		if w.Bytes != 8 || w.Cost < 1 {
			t.Errorf("evicted %s carried weight %+v, want the Weigh-sampled one", k, w)
		}
	}
}

// TestLRUConcurrentStorm is the -race workout: every operation the
// service performs, hammered by goroutines. The assertions pin that
// the capacity bound holds and no key is resident twice.
func TestLRUConcurrentStorm(t *testing.T) {
	c := NewLRU(LRUOptions[int]{
		Capacity: 128,
		Weigh:    func(v int) Weight { return Weight{Cost: 1, Bytes: 1} },
		OnEvict:  func(string, int, Weight) {},
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			r := uint64(seed)*2654435761 + 1
			for i := 0; i < 2000; i++ {
				r ^= r << 13
				r ^= r >> 7
				r ^= r << 17
				k := fmt.Sprintf("k%d", r%256)
				switch r % 4 {
				case 0:
					c.Add(k, int(r%1000))
				case 1:
					c.Peek(k)
				case 2:
					c.Len()
				default:
					v, _, err := c.GetOrCompute(k, func() (int, error) { return int(r % 1000), nil })
					if err != nil || v < 0 || v >= 1000 {
						t.Errorf("GetOrCompute(%s) = (%d, %v)", k, v, err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if n := c.Len(); n > 128 {
		t.Errorf("storm left %d resident entries, capacity is 128", n)
	}
	seen := map[string]bool{}
	for _, e := range c.Entries() {
		if seen[e.Key] {
			t.Errorf("key %s resident twice", e.Key)
		}
		seen[e.Key] = true
	}
}
