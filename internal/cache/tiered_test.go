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

type tierCell struct {
	N int `json:"n"`
}

func newTestTiered(t *testing.T, capacity int, disk *DiskStore) *Tiered[tierCell] {
	t.Helper()
	tc, err := NewTiered(TieredOptions[tierCell]{
		Capacity: capacity,
		Weigh:    func(c tierCell) Weight { return Weight{Cost: float64(c.N), Bytes: 16} },
		Encode:   func(c tierCell) ([]byte, error) { return json.Marshal(c) },
		Decode: func(b []byte) (tierCell, error) {
			var c tierCell
			err := json.Unmarshal(b, &c)
			return c, err
		},
		Disk: disk,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tc
}

// TestTieredWarmHitAllocs: a warm memory hit — the service's hottest
// cache path — allocates nothing.
func TestTieredWarmHitAllocs(t *testing.T) {
	tc := newTestTiered(t, 4, nil)
	tc.Add("k", tierCell{N: 1})
	compute := func() (tierCell, error) { return tierCell{}, errors.New("warm lookup computed") }
	allocs := testing.AllocsPerRun(1000, func() {
		if _, tier, err := tc.GetOrCompute("k", compute); err != nil || tier != TierMem {
			t.Fatalf("warm lookup = (%v, %v), want a memory hit", tier, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Tiered.GetOrCompute allocates %v allocs/op, want 0", allocs)
	}
}

// TestTieredEvictSpillPromote is the tier-transition round trip: an
// entry evicted from memory spills to disk, a later lookup reads it
// back (TierDisk) and promotes it, and the lookup after that is a
// memory hit (TierMem) — all without ever recomputing.
func TestTieredEvictSpillPromote(t *testing.T) {
	disk := openTestDisk(t, DiskOptions{})
	tc := newTestTiered(t, 1, disk) // capacity 1: the second insert evicts the first

	computes := 0
	get := func(key string, n int) (tierCell, Tier) {
		t.Helper()
		v, tier, err := tc.GetOrCompute(key, func() (tierCell, error) {
			computes++
			return tierCell{N: n}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return v, tier
	}

	if _, tier := get("a", 1); tier != TierMiss {
		t.Fatalf("first lookup of a: tier %v, want miss", tier)
	}
	if _, tier := get("b", 2); tier != TierMiss {
		t.Fatalf("first lookup of b: tier %v, want miss", tier)
	}
	if _, ok := tc.Peek("a"); ok {
		t.Fatal("a still memory-resident at capacity 1")
	}
	if !disk.Contains("a") {
		t.Fatal("evicted entry a never spilled")
	}

	v, tier := get("a", 999) // 999 would betray a recompute
	if tier != TierDisk || v.N != 1 {
		t.Fatalf("spilled lookup of a = (%+v, %v), want ({1}, disk)", v, tier)
	}
	if _, ok := tc.Peek("a"); !ok {
		t.Fatal("disk hit did not promote a into memory")
	}
	if v, tier := get("a", 999); tier != TierMem || v.N != 1 {
		t.Fatalf("promoted lookup of a = (%+v, %v), want ({1}, mem)", v, tier)
	}
	if computes != 2 {
		t.Errorf("%d computations, want 2 (a and b once each)", computes)
	}
}

// TestTieredTierString pins the metric label values.
func TestTieredTierString(t *testing.T) {
	for tier, want := range map[Tier]string{TierMiss: "miss", TierMem: "mem", TierDisk: "disk"} {
		if got := tier.String(); got != want {
			t.Errorf("Tier(%d).String() = %q, want %q", tier, got, want)
		}
	}
}

// TestTieredObservers: OnHit carries the serving tier, OnMiss fires on
// fresh computation, and neither fires on error.
func TestTieredObservers(t *testing.T) {
	var memHits, diskHits, misses atomic.Int64
	disk := openTestDisk(t, DiskOptions{})
	tc, err := NewTiered(TieredOptions[tierCell]{
		Capacity: 1,
		Encode:   func(c tierCell) ([]byte, error) { return json.Marshal(c) },
		Decode:   func(b []byte) (tierCell, error) { var c tierCell; return c, json.Unmarshal(b, &c) },
		Disk:     disk,
		OnHit: func(tier Tier) {
			if tier == TierDisk {
				diskHits.Add(1)
			} else {
				memHits.Add(1)
			}
		},
		OnMiss: func() { misses.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	tc.GetOrCompute("a", func() (tierCell, error) { return tierCell{N: 1}, nil }) // miss
	tc.GetOrCompute("a", func() (tierCell, error) { return tierCell{N: 1}, nil }) // mem hit
	tc.GetOrCompute("b", func() (tierCell, error) { return tierCell{N: 2}, nil }) // miss, evicts a
	tc.GetOrCompute("a", func() (tierCell, error) { return tierCell{N: 1}, nil }) // disk hit
	tc.GetOrCompute("c", func() (tierCell, error) { return tierCell{}, errors.New("nope") })

	if m, d, mi := memHits.Load(), diskHits.Load(), misses.Load(); m != 1 || d != 1 || mi != 2 {
		t.Errorf("memHits=%d diskHits=%d misses=%d, want 1/1/2 (errors observe nothing)", m, d, mi)
	}
}

// TestTieredContainsBothTiers: Contains sees memory and disk residency
// without promoting — the admission-control probe contract.
func TestTieredContainsBothTiers(t *testing.T) {
	disk := openTestDisk(t, DiskOptions{})
	tc := newTestTiered(t, 1, disk)
	tc.Add("a", tierCell{N: 1})
	tc.Add("b", tierCell{N: 2}) // evicts and spills a

	if !tc.Contains("a") {
		t.Error("Contains(a) false for a spilled entry")
	}
	if !tc.Contains("b") {
		t.Error("Contains(b) false for a memory-resident entry")
	}
	if tc.Contains("c") {
		t.Error("Contains(c) true for an absent key")
	}
	if _, ok := tc.Peek("a"); ok {
		t.Error("Contains promoted a into memory")
	}
}

// TestTieredUndecodablePayloadRecomputes: a spill entry whose payload
// no longer decodes (schema drift, silent damage below the checksum's
// radar) is dropped and recomputed, not served or crashed on.
func TestTieredUndecodablePayloadRecomputes(t *testing.T) {
	disk := openTestDisk(t, DiskOptions{})
	disk.Put("a", []byte("not json"), 1)

	tc := newTestTiered(t, 4, disk)
	v, tier, err := tc.GetOrCompute("a", func() (tierCell, error) { return tierCell{N: 7}, nil })
	if err != nil || v.N != 7 || tier != TierMiss {
		t.Fatalf("GetOrCompute over garbage payload = (%+v, %v, %v), want ({7}, miss, nil)", v, tier, err)
	}
	if disk.Contains("a") {
		t.Error("undecodable spill entry not dropped")
	}
}

// TestTieredMemoryOnly: without a disk tier, Tiered behaves exactly
// like LRU — evictions discard, SpillAll is a no-op.
func TestTieredMemoryOnly(t *testing.T) {
	tc, err := NewTiered(TieredOptions[tierCell]{Capacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	tc.Add("a", tierCell{N: 1})
	tc.Add("b", tierCell{N: 2})
	if tc.Contains("a") {
		t.Error("evicted entry resident with no disk tier")
	}
	if n := tc.DiskLen(); n != 0 {
		t.Errorf("DiskLen = %d without a disk", n)
	}
	tc.SpillAll()
	v, tier, err := tc.GetOrCompute("a", func() (tierCell, error) { return tierCell{N: 9}, nil })
	if err != nil || tier != TierMiss || v.N != 9 {
		t.Errorf("memory-only recompute = (%+v, %v, %v)", v, tier, err)
	}
}

// TestTieredRequiresCodec: a disk tier without Encode/Decode is a
// constructor error, not a latent panic.
func TestTieredRequiresCodec(t *testing.T) {
	disk := openTestDisk(t, DiskOptions{})
	if _, err := NewTiered(TieredOptions[tierCell]{Capacity: 1, Disk: disk}); err == nil {
		t.Fatal("NewTiered accepted a disk tier with no codec")
	}
}

// TestTieredSpillAll: every memory-resident entry lands on disk, and a
// second store over the same directory serves them all — the
// shutdown/restart warmth contract.
func TestTieredSpillAll(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "spill")
	disk, err := OpenDisk(DiskOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tc := newTestTiered(t, 64, disk)
	const n = 20
	for i := 0; i < n; i++ {
		tc.Add(fmt.Sprintf("k%d", i), tierCell{N: i + 1})
	}
	tc.SpillAll()
	if got := disk.Len(); got != n {
		t.Fatalf("SpillAll landed %d of %d entries", got, n)
	}

	disk2 := openTestDisk(t, DiskOptions{Dir: dir})
	tc2 := newTestTiered(t, 64, disk2)
	for i := 0; i < n; i++ {
		v, tier, err := tc2.GetOrCompute(fmt.Sprintf("k%d", i), func() (tierCell, error) {
			return tierCell{N: -1}, nil
		})
		if err != nil || tier != TierDisk || v.N != i+1 {
			t.Fatalf("k%d after restart = (%+v, %v, %v), want ({%d}, disk, nil)", i, v, tier, err, i+1)
		}
	}
}

// TestTieredCoalescedDiskRead: a burst of lookups for one spilled key
// costs a single disk read; joiners see a hit.
func TestTieredCoalescedDiskRead(t *testing.T) {
	disk := openTestDisk(t, DiskOptions{})
	tc := newTestTiered(t, 8, disk)
	tc.Add("cold", tierCell{N: 5})
	// Evict it by filling the memory tier past capacity.
	for i := 0; i < 16; i++ {
		tc.Add(fmt.Sprintf("filler%d", i), tierCell{N: i})
	}
	if _, ok := tc.Peek("cold"); ok {
		t.Fatal("cold still memory-resident after 16 inserts at capacity 8")
	}

	var computes, diskTiers atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, tier, err := tc.GetOrCompute("cold", func() (tierCell, error) {
				computes.Add(1)
				return tierCell{N: -1}, nil
			})
			if err != nil || v.N != 5 {
				t.Errorf("burst lookup = (%+v, %v)", v, err)
			}
			if tier == TierDisk {
				diskTiers.Add(1)
			}
		}()
	}
	wg.Wait()
	if computes.Load() != 0 {
		t.Errorf("%d recomputes of a spilled key", computes.Load())
	}
	if diskTiers.Load() < 1 {
		t.Error("no caller observed the disk tier")
	}
}

// TestTieredConcurrentPromoteEvictStorm is the -race workout across
// both tiers: a working set larger than memory churns entries through
// evict → spill → promote cycles while values stay key-determined, so
// any cross-tier corruption shows up as a wrong value.
func TestTieredConcurrentPromoteEvictStorm(t *testing.T) {
	disk := openTestDisk(t, DiskOptions{MaxBytes: 1 << 20})
	tc := newTestTiered(t, 8, disk) // tiny memory: constant eviction traffic
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
				v, _, err := tc.GetOrCompute(key, func() (tierCell, error) {
					return tierCell{N: want}, nil
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
