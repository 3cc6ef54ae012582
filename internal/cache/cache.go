// Hardware cache models. This file implements the set-associative,
// write-back, write-allocate caches of the simulated GPU (Table I):
// the 16 KB 4-way per-SM L1 data caches and the eight 64 KB 8-way LLC
// slices. Outstanding misses are the SM's to track (its MSHR file is
// in internal/gpu). The package doc (and the service-level tiered
// result store) lives in doc.go.
package cache

import (
	"fmt"
	"math/bits"
)

// Config sizes a cache.
type Config struct {
	Name      string
	SizeBytes int
	LineBytes int
	Ways      int
}

// L1Config returns the per-SM L1D of Table I: 16 KB, 4-way, 32 sets,
// 128 B lines.
func L1Config() Config {
	return Config{Name: "L1D", SizeBytes: 16 << 10, LineBytes: 128, Ways: 4}
}

// LLCSliceConfig returns one LLC slice of Table I: 64 KB, 8-way, 64 sets,
// 128 B lines (8 slices = 512 KB total).
func LLCSliceConfig() Config {
	return Config{Name: "LLC-slice", SizeBytes: 64 << 10, LineBytes: 128, Ways: 8}
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int { return c.SizeBytes / (c.LineBytes * c.Ways) }

// Stats counts cache events.
type Stats struct {
	Accesses   int64
	Hits       int64
	Misses     int64
	Evictions  int64
	Writebacks int64 // dirty evictions
}

// MissRate returns Misses/Accesses (0 when idle).
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

type way struct {
	tag   uint64
	valid bool
	dirty bool
	used  uint64 // LRU timestamp
}

// Cache is a set-associative write-back cache with true-LRU replacement.
// It is a state container, not a timing model; the simulator supplies
// timing around it.
type Cache struct {
	cfg      Config
	sets     [][]way
	tick     uint64
	setShift uint
	setMask  uint64
	stats    Stats
}

// New builds a cache. Line size, way count and set count must be powers
// of two and consistent with the total size.
func New(cfg Config) (*Cache, error) {
	if cfg.LineBytes <= 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		return nil, fmt.Errorf("cache %s: line size %d not a power of two", cfg.Name, cfg.LineBytes)
	}
	if cfg.Ways <= 0 {
		return nil, fmt.Errorf("cache %s: ways %d", cfg.Name, cfg.Ways)
	}
	sets := cfg.Sets()
	if sets <= 0 || sets*cfg.LineBytes*cfg.Ways != cfg.SizeBytes {
		return nil, fmt.Errorf("cache %s: size %d not divisible into %d-way sets of %d-byte lines",
			cfg.Name, cfg.SizeBytes, cfg.Ways, cfg.LineBytes)
	}
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache %s: set count %d not a power of two", cfg.Name, sets)
	}
	c := &Cache{
		cfg:      cfg,
		sets:     make([][]way, sets),
		setShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		setMask:  uint64(sets - 1),
	}
	for i := range c.sets {
		c.sets[i] = make([]way, cfg.Ways)
	}
	return c, nil
}

// MustNew is New but panics on error.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

func (c *Cache) index(addr uint64) (set int, tag uint64) {
	line := addr >> c.setShift
	return int(line & c.setMask), line >> uint(bits.TrailingZeros(uint(len(c.sets))))
}

// Probe reports whether addr currently hits, without touching LRU state
// or statistics.
func (c *Cache) Probe(addr uint64) bool {
	set, tag := c.index(addr)
	for i := range c.sets[set] {
		if c.sets[set][i].valid && c.sets[set][i].tag == tag {
			return true
		}
	}
	return false
}

// Result describes the outcome of an Access.
type Result struct {
	Hit bool
	// Eviction reports whether a valid line was displaced, and Victim /
	// VictimDirty describe it. Dirty victims generate writeback traffic.
	Eviction    bool
	Victim      uint64 // line-aligned address of the victim
	VictimDirty bool
}

// Access performs a load (write=false) or store (write=true) with
// write-allocate semantics: on a miss the line is installed immediately.
// The caller models the fill latency; the state change is immediate so a
// subsequent access to the same line hits (a caller that must not hit
// before the fill, like the SM, checks its own pending misses first).
func (c *Cache) Access(addr uint64, write bool) Result {
	c.tick++
	c.stats.Accesses++
	set, tag := c.index(addr)
	ws := c.sets[set]
	for i := range ws {
		if ws[i].valid && ws[i].tag == tag {
			ws[i].used = c.tick
			if write {
				ws[i].dirty = true
			}
			c.stats.Hits++
			return Result{Hit: true}
		}
	}
	c.stats.Misses++
	// Choose victim: invalid way first, else true LRU.
	victim := 0
	for i := range ws {
		if !ws[i].valid {
			victim = i
			break
		}
		if ws[i].used < ws[victim].used {
			victim = i
		}
	}
	res := Result{}
	if ws[victim].valid {
		res.Eviction = true
		res.VictimDirty = ws[victim].dirty
		res.Victim = c.reconstruct(set, ws[victim].tag)
		c.stats.Evictions++
		if ws[victim].dirty {
			c.stats.Writebacks++
		}
	}
	ws[victim] = way{tag: tag, valid: true, dirty: write, used: c.tick}
	return res
}

func (c *Cache) reconstruct(set int, tag uint64) uint64 {
	setBits := uint(bits.TrailingZeros(uint(len(c.sets))))
	return ((tag << setBits) | uint64(set)) << c.setShift
}
