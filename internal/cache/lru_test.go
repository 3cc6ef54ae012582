package cache

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

type testCell struct {
	N int `json:"n"`
}

// testOptions configures a cache of testCells over disk (nil for
// memory-only) with a JSON codec.
func testOptions(capacity int, disk *DiskStore) LRUOptions[testCell] {
	return LRUOptions[testCell]{
		Capacity: capacity,
		Disk:     disk,
		Encode:   func(c testCell) ([]byte, error) { return json.Marshal(c) },
		Decode: func(b []byte) (testCell, error) {
			var c testCell
			err := json.Unmarshal(b, &c)
			return c, err
		},
	}
}

func newTestLRU(capacity int, disk *DiskStore) *LRU[testCell] {
	return NewLRU(testOptions(capacity, disk))
}

// put inserts val under key through the compute path; the key must not
// be resident in either tier.
func put[V any](t *testing.T, c *LRU[V], key string, val V) {
	t.Helper()
	if _, hit, err := c.GetOrCompute(key, func() (V, error) { return val, nil }); err != nil || hit {
		t.Fatalf("inserting %q: hit=%v err=%v", key, hit, err)
	}
}

// inMemory reports whether key is resident in the memory tier, without
// touching recency or the observers.
func inMemory[V any](c *LRU[V], key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.items[key]
	return ok
}

// TestLRUEviction: eviction is exact LRU, a hit refreshes recency, and
// the entry an insert evicts is never the newcomer itself.
func TestLRUEviction(t *testing.T) {
	cases := []struct {
		name     string
		capacity int
		insert   []string
		touch    []string // lookups between the inserts and the overflow
		overflow []string
		evicted  []string
		kept     []string
	}{
		{
			name:     "exact LRU",
			capacity: 3,
			insert:   []string{"a", "b", "c"},
			overflow: []string{"d"},
			evicted:  []string{"a"},
			kept:     []string{"b", "c", "d"},
		},
		{
			name:     "recency refresh",
			capacity: 3,
			insert:   []string{"a", "b", "c"},
			touch:    []string{"a"},
			overflow: []string{"d"},
			evicted:  []string{"b"},
			kept:     []string{"a", "c", "d"},
		},
		{
			name:     "capacity 1 admits the newcomer",
			capacity: 1,
			insert:   []string{"old"},
			overflow: []string{"new"},
			evicted:  []string{"old"},
			kept:     []string{"new"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewLRU(LRUOptions[string]{Capacity: tc.capacity})
			for _, k := range tc.insert {
				put(t, c, k, "v:"+k)
			}
			for _, k := range tc.touch {
				if _, hit, _ := c.GetOrCompute(k, func() (string, error) { return "v:" + k, nil }); !hit {
					t.Fatalf("touch target %q not resident", k)
				}
			}
			for _, k := range tc.overflow {
				put(t, c, k, "v:"+k)
			}

			if got := c.Len(); got != tc.capacity {
				t.Fatalf("len = %d, want capacity %d", got, tc.capacity)
			}
			for _, k := range tc.evicted {
				if inMemory(c, k) {
					t.Errorf("%q should have been evicted", k)
				}
			}
			for _, k := range tc.kept {
				if !inMemory(c, k) {
					t.Errorf("%q should have survived", k)
				}
			}
		})
	}
}

// TestLRUSpillsEveryEviction: every capacity eviction reaches the disk
// tier, and the memory tier never holds more than Capacity.
func TestLRUSpillsEveryEviction(t *testing.T) {
	disk := openTestDisk(t, DiskOptions{})
	c := newTestLRU(4, disk)
	for i := 0; i < 32; i++ {
		put(t, c, fmt.Sprintf("k%d", i), testCell{N: i + 1})
	}
	if c.Len() != 4 || disk.Len() != 28 {
		t.Fatalf("%d resident + %d spilled, want 4 + 28", c.Len(), disk.Len())
	}
	for i := 0; i < 28; i++ {
		if k := fmt.Sprintf("k%d", i); !disk.Contains(k) {
			t.Errorf("evicted %s never spilled", k)
		}
	}
}

// TestLRUCoalescingAndErrors re-pins the behavior the service relied on
// before the move to internal/cache: in-flight coalescing, uncached
// errors, panic recovery as *PanicError.
func TestLRUCoalescingAndErrors(t *testing.T) {
	var computes atomic.Int64
	var hits atomic.Int64
	c := NewLRU(LRUOptions[int]{Capacity: 8, OnHit: func(Tier) { hits.Add(1) }})
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

// TestLRUConcurrentStorm is the -race workout: every operation the
// service performs, hammered by goroutines. The assertions pin that
// the capacity bound holds and no key is resident twice.
func TestLRUConcurrentStorm(t *testing.T) {
	c := NewLRU(LRUOptions[int]{Capacity: 128})
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
					c.Contains(k)
				case 1:
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
	for el := c.ll.Front(); el != nil; el = el.Next() {
		k := el.Value.(*lruEntry[int]).key
		if seen[k] {
			t.Errorf("key %s resident twice", k)
		}
		seen[k] = true
	}
	if len(c.items) != len(seen) {
		t.Errorf("%d indexed keys for %d resident entries", len(c.items), len(seen))
	}
}

// TestLRUWarmHitAllocs: a warm memory hit — the service's hottest
// cache path — allocates nothing.
func TestLRUWarmHitAllocs(t *testing.T) {
	c := newTestLRU(4, nil)
	put(t, c, "k", testCell{N: 1})
	compute := func() (testCell, error) { return testCell{}, errors.New("warm lookup computed") }
	allocs := testing.AllocsPerRun(1000, func() {
		if _, hit, err := c.GetOrCompute("k", compute); err != nil || !hit {
			t.Fatalf("warm lookup = (%v, %v), want a memory hit", hit, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm LRU.GetOrCompute allocates %v allocs/op, want 0", allocs)
	}
}

// TestLRUEvictSpillPromote is the tier-transition round trip: an
// entry evicted from memory spills to disk, a later lookup reads it
// back (TierDisk) and promotes it, and the lookup after that is a
// memory hit (TierMem) — all without ever recomputing.
func TestLRUEvictSpillPromote(t *testing.T) {
	disk := openTestDisk(t, DiskOptions{})
	var tiers []Tier
	opt := testOptions(1, disk) // capacity 1: the second insert evicts the first
	opt.OnHit = func(tier Tier) { tiers = append(tiers, tier) }
	c := NewLRU(opt)

	computes := 0
	get := func(key string, n int) (testCell, bool) {
		t.Helper()
		v, hit, err := c.GetOrCompute(key, func() (testCell, error) {
			computes++
			return testCell{N: n}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return v, hit
	}

	if _, hit := get("a", 1); hit {
		t.Fatal("first lookup of a hit")
	}
	if _, hit := get("b", 2); hit {
		t.Fatal("first lookup of b hit")
	}
	if inMemory(c, "a") {
		t.Fatal("a still memory-resident at capacity 1")
	}
	if !disk.Contains("a") {
		t.Fatal("evicted entry a never spilled")
	}

	v, hit := get("a", 999) // 999 would betray a recompute
	if !hit || v.N != 1 || len(tiers) != 1 || tiers[0] != TierDisk {
		t.Fatalf("spilled lookup of a = (%+v, hit %v, tiers %v), want ({1}, a disk hit)", v, hit, tiers)
	}
	if !inMemory(c, "a") {
		t.Fatal("disk hit did not promote a into memory")
	}
	if v, hit := get("a", 999); !hit || v.N != 1 || len(tiers) != 2 || tiers[1] != TierMem {
		t.Fatalf("promoted lookup of a = (%+v, hit %v, tiers %v), want ({1}, a memory hit)", v, hit, tiers)
	}
	if computes != 2 {
		t.Errorf("%d computations, want 2 (a and b once each)", computes)
	}
}

// TestLRURespillCountsAsWrite: an entry read from disk, promoted and
// evicted again counts as just written, so a binding spill budget
// deletes the colder entry spilled before it.
func TestLRURespillCountsAsWrite(t *testing.T) {
	// 1-byte keys and 7-byte payloads ({"n":1}) make 60-byte entry
	// files: a 20-byte header, the key, the payload and a 32-byte
	// digest. 130 bytes hold two.
	disk := openTestDisk(t, DiskOptions{MaxBytes: 130})
	c := newTestLRU(1, disk)
	put(t, c, "a", testCell{N: 1})
	put(t, c, "b", testCell{N: 2}) // spills a
	if v, hit, err := c.GetOrCompute("a", func() (testCell, error) { return testCell{N: 9}, nil }); err != nil || !hit || v.N != 1 {
		t.Fatalf("lookup of spilled a = (%+v, hit %v, %v), want a disk hit on {1}", v, hit, err)
	} // promotes a, spills b
	put(t, c, "c", testCell{N: 3}) // evicts a, whose file is still on disk
	put(t, c, "d", testCell{N: 4}) // spills c: over budget, the oldest write goes
	if disk.Bytes() != 120 {
		t.Errorf("spill bytes = %d, want 120 (two 60-byte entries)", disk.Bytes())
	}
	for _, tc := range []struct {
		key  string
		want bool
	}{{"a", true}, {"b", false}, {"c", true}} {
		if got := disk.Contains(tc.key); got != tc.want {
			t.Errorf("disk holds %s = %v, want %v", tc.key, got, tc.want)
		}
	}
}

// TestLRUObservers: OnHit carries the serving tier, OnMiss fires on
// fresh computation, and neither fires on error.
func TestLRUObservers(t *testing.T) {
	var memHits, diskHits, misses atomic.Int64
	opt := testOptions(1, openTestDisk(t, DiskOptions{}))
	opt.OnHit = func(tier Tier) {
		if tier == TierDisk {
			diskHits.Add(1)
		} else {
			memHits.Add(1)
		}
	}
	opt.OnMiss = func() { misses.Add(1) }
	c := NewLRU(opt)
	c.GetOrCompute("a", func() (testCell, error) { return testCell{N: 1}, nil }) // miss
	c.GetOrCompute("a", func() (testCell, error) { return testCell{N: 1}, nil }) // mem hit
	c.GetOrCompute("b", func() (testCell, error) { return testCell{N: 2}, nil }) // miss, evicts a
	c.GetOrCompute("a", func() (testCell, error) { return testCell{N: 1}, nil }) // disk hit
	c.GetOrCompute("c", func() (testCell, error) { return testCell{}, errors.New("nope") })

	if m, d, mi := memHits.Load(), diskHits.Load(), misses.Load(); m != 1 || d != 1 || mi != 2 {
		t.Errorf("memHits=%d diskHits=%d misses=%d, want 1/1/2 (errors observe nothing)", m, d, mi)
	}
}

// TestLRUContainsBothTiers: Contains sees memory and disk residency
// without promoting — the admission-control probe contract.
func TestLRUContainsBothTiers(t *testing.T) {
	c := newTestLRU(1, openTestDisk(t, DiskOptions{}))
	put(t, c, "a", testCell{N: 1})
	put(t, c, "b", testCell{N: 2}) // evicts and spills a

	if !c.Contains("a") {
		t.Error("Contains(a) false for a spilled entry")
	}
	if !c.Contains("b") {
		t.Error("Contains(b) false for a memory-resident entry")
	}
	if c.Contains("c") {
		t.Error("Contains(c) true for an absent key")
	}
	if inMemory(c, "a") {
		t.Error("Contains promoted a into memory")
	}
}

// TestLRUUndecodablePayloadRecomputes: a spill entry whose payload no
// longer decodes (schema drift, silent damage below the checksum's
// radar) is dropped and recomputed, not served or crashed on.
func TestLRUUndecodablePayloadRecomputes(t *testing.T) {
	disk := openTestDisk(t, DiskOptions{})
	disk.Put("a", []byte("not json"))

	c := newTestLRU(4, disk)
	v, hit, err := c.GetOrCompute("a", func() (testCell, error) { return testCell{N: 7}, nil })
	if err != nil || v.N != 7 || hit {
		t.Fatalf("GetOrCompute over garbage payload = (%+v, hit %v, %v), want ({7}, a miss, nil)", v, hit, err)
	}
	if disk.Contains("a") {
		t.Error("undecodable spill entry not dropped")
	}
}

// TestLRUMemoryOnly: without a disk tier, evictions discard and
// SpillAll is a no-op.
func TestLRUMemoryOnly(t *testing.T) {
	c := NewLRU(LRUOptions[testCell]{Capacity: 1})
	put(t, c, "a", testCell{N: 1})
	put(t, c, "b", testCell{N: 2})
	if c.Contains("a") {
		t.Error("evicted entry resident with no disk tier")
	}
	c.SpillAll()
	v, hit, err := c.GetOrCompute("a", func() (testCell, error) { return testCell{N: 9}, nil })
	if err != nil || hit || v.N != 9 {
		t.Errorf("memory-only recompute = (%+v, hit %v, %v)", v, hit, err)
	}
}

// TestLRURequiresCodec: a disk tier without Encode/Decode is a
// constructor panic, not a latent one on the first eviction.
func TestLRURequiresCodec(t *testing.T) {
	disk := openTestDisk(t, DiskOptions{})
	defer func() {
		if recover() == nil {
			t.Fatal("NewLRU accepted a disk tier with no codec")
		}
	}()
	NewLRU(LRUOptions[testCell]{Capacity: 1, Disk: disk})
}

// TestLRUSpillAll: every memory-resident entry lands on disk, and a
// second store over the same directory serves them all from disk — the
// shutdown/restart warmth contract.
func TestLRUSpillAll(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "spill")
	disk := openTestDisk(t, DiskOptions{Dir: dir})
	c := newTestLRU(64, disk)
	const n = 20
	for i := 0; i < n; i++ {
		put(t, c, fmt.Sprintf("k%d", i), testCell{N: i + 1})
	}
	c.SpillAll()
	if got := disk.Len(); got != n {
		t.Fatalf("SpillAll landed %d of %d entries", got, n)
	}

	var diskHits atomic.Int64
	opt := testOptions(64, openTestDisk(t, DiskOptions{Dir: dir}))
	opt.OnHit = func(tier Tier) {
		if tier == TierDisk {
			diskHits.Add(1)
		}
	}
	c2 := NewLRU(opt)
	for i := 0; i < n; i++ {
		v, hit, err := c2.GetOrCompute(fmt.Sprintf("k%d", i), func() (testCell, error) {
			return testCell{N: -1}, nil
		})
		if err != nil || !hit || v.N != i+1 {
			t.Fatalf("k%d after restart = (%+v, hit %v, %v), want ({%d}, a hit, nil)", i, v, hit, err, i+1)
		}
	}
	if got := diskHits.Load(); got != n {
		t.Errorf("%d disk hits after restart, want %d", got, n)
	}
}

// TestLRUCoalescedDiskRead: a burst of lookups for one spilled key
// costs a single disk read; joiners see a memory hit.
func TestLRUCoalescedDiskRead(t *testing.T) {
	var diskHits atomic.Int64
	opt := testOptions(8, openTestDisk(t, DiskOptions{}))
	opt.OnHit = func(tier Tier) {
		if tier == TierDisk {
			diskHits.Add(1)
		}
	}
	c := NewLRU(opt)
	put(t, c, "cold", testCell{N: 5})
	// Evict it by filling the memory tier past capacity.
	for i := 0; i < 16; i++ {
		put(t, c, fmt.Sprintf("filler%d", i), testCell{N: i})
	}
	if inMemory(c, "cold") {
		t.Fatal("cold still memory-resident after 16 inserts at capacity 8")
	}

	var computes atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, hit, err := c.GetOrCompute("cold", func() (testCell, error) {
				computes.Add(1)
				return testCell{N: -1}, nil
			})
			if err != nil || !hit || v.N != 5 {
				t.Errorf("burst lookup = (%+v, hit %v, %v)", v, hit, err)
			}
		}()
	}
	wg.Wait()
	if computes.Load() != 0 {
		t.Errorf("%d recomputes of a spilled key", computes.Load())
	}
	if got := diskHits.Load(); got != 1 {
		t.Errorf("%d disk reads for one burst, want 1", got)
	}
}

// TestLRUConcurrentPromoteEvictStorm is the -race workout across both
// tiers: a working set larger than memory churns entries through
// evict → spill → promote cycles while values stay key-determined, so
// any cross-tier corruption shows up as a wrong value.
func TestLRUConcurrentPromoteEvictStorm(t *testing.T) {
	c := newTestLRU(8, openTestDisk(t, DiskOptions{MaxBytes: 1 << 20})) // tiny memory: constant eviction traffic
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			r := uint64(seed)*0x9e3779b9 + 1
			for i := 0; i < 400; i++ {
				r ^= r << 13
				r ^= r >> 7
				r ^= r << 17
				id := int(r % 64)
				key := fmt.Sprintf("cell-%d", id)
				want := id*100 + 1 // pure function of the key
				v, _, err := c.GetOrCompute(key, func() (testCell, error) {
					return testCell{N: want}, nil
				})
				if err != nil {
					t.Errorf("storm lookup %s: %v", key, err)
				} else if v.N != want {
					t.Errorf("storm lookup %s = %d, want %d (cross-tier corruption)", key, v.N, want)
				}
			}
		}(g)
	}
	wg.Wait()
}
