package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConfigs(t *testing.T) {
	l1 := L1Config()
	if l1.Sets() != 32 {
		t.Errorf("L1 sets = %d, want 32 (Table I)", l1.Sets())
	}
	llc := LLCSliceConfig()
	if llc.Sets() != 64 {
		t.Errorf("LLC slice sets = %d, want 64 (Table I)", llc.Sets())
	}
}

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{Name: "line0", SizeBytes: 1024, LineBytes: 0, Ways: 2},
		{Name: "lineNP2", SizeBytes: 1024, LineBytes: 96, Ways: 2},
		{Name: "ways0", SizeBytes: 1024, LineBytes: 64, Ways: 0},
		{Name: "odd", SizeBytes: 1000, LineBytes: 64, Ways: 2},
		{Name: "setsNP2", SizeBytes: 64 * 2 * 3, LineBytes: 64, Ways: 2},
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: expected error", cfg.Name)
		}
	}
}

func TestHitMiss(t *testing.T) {
	c := MustNew(Config{Name: "t", SizeBytes: 1024, LineBytes: 64, Ways: 2})
	if r := c.Access(0x100, false); r.Hit {
		t.Fatal("cold access hit")
	}
	if r := c.Access(0x100, false); !r.Hit {
		t.Fatal("second access missed")
	}
	if r := c.Access(0x13F, false); !r.Hit {
		t.Fatal("same line different offset missed")
	}
	st := c.Stats()
	if st.Accesses != 3 || st.Hits != 2 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.MissRate() != 1.0/3.0 {
		t.Errorf("miss rate = %v", st.MissRate())
	}
}

func TestLRUReplacement(t *testing.T) {
	// 2-way, 8 sets of 64B: addresses with the same set index collide.
	c := MustNew(Config{Name: "t", SizeBytes: 1024, LineBytes: 64, Ways: 2})
	a0 := uint64(0x0000) // set 0
	a1 := uint64(0x0400) // set 0 (1024 apart)
	a2 := uint64(0x0800) // set 0
	c.Access(a0, false)
	c.Access(a1, false)
	c.Access(a0, false) // a0 is MRU, a1 LRU
	r := c.Access(a2, false)
	if !r.Eviction || r.Victim != a1 {
		t.Fatalf("expected a1 evicted, got %+v", r)
	}
	if !c.Probe(a0) || c.Probe(a1) || !c.Probe(a2) {
		t.Error("LRU state wrong after eviction")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := MustNew(Config{Name: "t", SizeBytes: 128, LineBytes: 64, Ways: 1})
	c.Access(0x0000, true) // dirty
	r := c.Access(0x1000, false)
	if !r.Eviction || !r.VictimDirty || r.Victim != 0 {
		t.Fatalf("expected dirty eviction of line 0, got %+v", r)
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("writebacks = %d", c.Stats().Writebacks)
	}
	// Read-hit then write makes the line dirty.
	c.Access(0x2000, false)
	c.Access(0x2000, true)
	r = c.Access(0x3000, false)
	if !r.VictimDirty {
		t.Error("write-hit did not dirty the line")
	}
}

func TestProbeDoesNotDisturb(t *testing.T) {
	c := MustNew(Config{Name: "t", SizeBytes: 128, LineBytes: 64, Ways: 1})
	c.Access(0x40, false)
	before := c.Stats()
	if !c.Probe(0x40) || c.Probe(0x4000) {
		t.Error("probe wrong")
	}
	if c.Stats() != before {
		t.Error("probe changed stats")
	}
}

// Property: a cache never holds more distinct lines than its capacity,
// and hits+misses == accesses.
func TestCapacityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{Name: "p", SizeBytes: 2048, LineBytes: 64, Ways: 4}
		c := MustNew(cfg)
		resident := map[uint64]bool{}
		for i := 0; i < 500; i++ {
			addr := uint64(rng.Intn(1 << 14))
			r := c.Access(addr, rng.Intn(2) == 0)
			line := addr &^ 63
			if r.Eviction {
				delete(resident, r.Victim)
			}
			resident[line] = true
			if len(resident) > cfg.SizeBytes/cfg.LineBytes {
				return false
			}
		}
		st := c.Stats()
		return st.Hits+st.Misses == st.Accesses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: after Access(addr), Probe(addr) is always true (write
// allocate installs immediately).
func TestWriteAllocateProperty(t *testing.T) {
	c := MustNew(L1Config())
	f := func(a uint32, w bool) bool {
		addr := uint64(a)
		c.Access(addr, w)
		return c.Probe(addr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestVictimReconstruction(t *testing.T) {
	c := MustNew(L1Config()) // 32 sets x 128B
	addr := uint64(0x12345680)
	c.Access(addr, false)
	// Evict by filling the set with 4 more distinct tags.
	setStride := uint64(32 * 128)
	var victims []uint64
	for i := 1; i <= 4; i++ {
		r := c.Access(addr+setStride*uint64(i), false)
		if r.Eviction {
			victims = append(victims, r.Victim)
		}
	}
	if len(victims) != 1 || victims[0] != addr&^127 {
		t.Errorf("victims = %#x, want [%#x]", victims, addr&^127)
	}
}
