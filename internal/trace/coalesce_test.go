package trace

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func warpReqs(warp int32, kind Kind, addrs ...uint64) []Request {
	out := make([]Request, len(addrs))
	for i, a := range addrs {
		out[i] = Request{Addr: a, Kind: kind, Warp: warp}
	}
	return out
}

func TestCoalesceContiguous(t *testing.T) {
	// 32 threads × 4 B = 128 B: one transaction.
	var addrs []uint64
	for i := 0; i < 32; i++ {
		addrs = append(addrs, 0x1000+uint64(i)*4)
	}
	tb := TB{ID: 3, Requests: warpReqs(0, Read, addrs...)}
	c := CoalesceTB(&tb, 128)
	if len(c.Requests) != 1 {
		t.Fatalf("coalesced to %d transactions, want 1", len(c.Requests))
	}
	if c.Requests[0].Addr != 0x1000 {
		t.Errorf("addr = %#x, want line-aligned 0x1000", c.Requests[0].Addr)
	}
	if c.ID != 3 {
		t.Errorf("ID = %d", c.ID)
	}
}

func TestCoalesceStrided(t *testing.T) {
	// 32 threads at 4 KB stride: 32 transactions (no merging).
	var addrs []uint64
	for i := 0; i < 32; i++ {
		addrs = append(addrs, uint64(i)*4096)
	}
	tb := TB{Requests: warpReqs(0, Write, addrs...)}
	c := CoalesceTB(&tb, 128)
	if len(c.Requests) != 32 {
		t.Fatalf("coalesced to %d transactions, want 32", len(c.Requests))
	}
}

func TestCoalesceSeparatesWarpsAndKinds(t *testing.T) {
	reqs := append(warpReqs(0, Read, 0, 4, 8), warpReqs(1, Read, 0, 4)...)
	reqs = append(reqs, warpReqs(1, Write, 0)...)
	tb := TB{Requests: reqs}
	c := CoalesceTB(&tb, 128)
	// Warp 0 read line 0; warp 1 read line 0; warp 1 write line 0.
	if len(c.Requests) != 3 {
		t.Fatalf("got %d transactions, want 3: %v", len(c.Requests), c.Requests)
	}
	if c.Requests[2].Kind != Write {
		t.Errorf("third transaction kind = %v, want W", c.Requests[2].Kind)
	}
}

func TestCoalesceMixedLines(t *testing.T) {
	// Threads straddle two lines.
	tb := TB{Requests: warpReqs(0, Read, 96, 100, 128, 132, 60)}
	c := CoalesceTB(&tb, 128)
	if len(c.Requests) != 2 {
		t.Fatalf("got %d transactions, want 2", len(c.Requests))
	}
	if c.Requests[0].Addr != 0 || c.Requests[1].Addr != 128 {
		t.Errorf("lines = %#x,%#x", c.Requests[0].Addr, c.Requests[1].Addr)
	}
}

func TestCoalesceDefaultLineSize(t *testing.T) {
	tb := TB{Requests: warpReqs(0, Read, 0, 127)}
	c := CoalesceTB(&tb, 0)
	if len(c.Requests) != 1 {
		t.Fatalf("default line size should be 128, got %d transactions", len(c.Requests))
	}
}

func TestCoalesceApp(t *testing.T) {
	app := &App{Name: "x", Abbr: "X", InsnPerAccess: 5, Valley: true, Kernels: []Kernel{
		{Name: "k", WarpsPerTB: 1, ComputeGapCycles: 7, TBs: []TB{
			{ID: 0, Requests: warpReqs(0, Read, 0, 4, 8, 12)},
			{ID: 1, Requests: warpReqs(0, Read, 4096, 8192)},
		}},
	}}
	c := CoalesceApp(app, 128)
	if c.Requests() != 3 {
		t.Fatalf("coalesced requests = %d, want 3", c.Requests())
	}
	if c.Kernels[0].ComputeGapCycles != 7 || c.Kernels[0].WarpsPerTB != 1 {
		t.Error("kernel metadata not preserved")
	}
	if c.Abbr != "X" || !c.Valley || c.InsnPerAccess != 5 {
		t.Error("app metadata not preserved")
	}
	// Original untouched.
	if app.Requests() != 6 {
		t.Error("original trace modified")
	}
}

// Properties: coalescing never increases request count, every output is
// line-aligned, and every input line appears in the output.
func TestCoalesceProperties(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := TB{}
		for i := 0; i < int(n%64)+1; i++ {
			tb.Requests = append(tb.Requests, Request{
				Addr: uint64(rng.Intn(1 << 16)),
				Kind: Kind(rng.Intn(2)),
				Warp: int32(rng.Intn(4)),
			})
		}
		c := CoalesceTB(&tb, 128)
		if len(c.Requests) > len(tb.Requests) {
			return false
		}
		outLines := map[uint64]bool{}
		for _, r := range c.Requests {
			if r.Addr%128 != 0 {
				return false
			}
			outLines[r.Addr] = true
		}
		for _, r := range tb.Requests {
			if !outLines[r.Addr&^uint64(127)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// referenceCoalesce is coalescing by its definition: each warp run's
// line addresses in order of first touch, found by scanning the run's
// output so far.
func referenceCoalesce(tb *TB, lineBytes int) []Request {
	var out []Request
	mask := ^uint64(lineBytes - 1)
	start := 0
	for i, r := range tb.Requests {
		if i > 0 && (r.Warp != tb.Requests[i-1].Warp || r.Kind != tb.Requests[i-1].Kind) {
			start = len(out)
		}
		seen := false
		for _, o := range out[start:] {
			seen = seen || o.Addr == r.Addr&mask
		}
		if !seen {
			out = append(out, Request{Addr: r.Addr & mask, Kind: r.Kind, Warp: r.Warp})
		}
	}
	return out
}

// TestCoalescerMatchesReference runs random TBs through one reused
// Coalescer and through CoalesceStream and compares both with
// referenceCoalesce. Runs reach 400 accesses over up to thousands of
// lines, so the dedup set grows and probes past collisions, and the
// Coalescer's set is reset between runs and reused across TBs.
func TestCoalescerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var c Coalescer
	for i := 0; i < 300; i++ {
		tb := TB{ID: i}
		for len(tb.Requests) < 1200 {
			warp, kind := int32(rng.Intn(3)), Kind(rng.Intn(2))
			span := 1 << (7 + rng.Intn(12))
			for n := 1 + rng.Intn(400); n > 0; n-- {
				tb.Requests = append(tb.Requests, Request{Addr: uint64(rng.Intn(span)), Kind: kind, Warp: warp})
			}
		}
		want := referenceCoalesce(&tb, 128)
		if got := c.Coalesce(&tb, 128); !reflect.DeepEqual(got.Requests, want) || got.ID != i {
			t.Fatalf("TB %d: Coalescer gives %d transactions, reference %d", i, len(got.Requests), len(want))
		}
		app := &App{Kernels: []Kernel{{Name: "k", WarpsPerTB: 3, TBs: []TB{tb}}}}
		got := drainApp(t, CoalesceStream(AppSource(app).Stream(), 128), SourceInfo{})
		if !reflect.DeepEqual(got.Kernels[0].TBs[0].Requests, want) {
			t.Fatalf("TB %d: CoalesceStream differs from the reference", i)
		}
	}
}

// TestLineSetGenerationWrap: when the generation counter wraps, reset
// clears the table, so a line added 2^32 runs earlier does not read as
// seen.
func TestLineSetGenerationWrap(t *testing.T) {
	var s lineSet
	s.reset()
	if !s.add(128) || s.add(128) {
		t.Fatal("a new line must be added once")
	}
	s.gen = math.MaxUint32
	s.reset()
	if s.gen != 1 {
		t.Fatalf("generation after the wrap = %d, want 1", s.gen)
	}
	if !s.add(128) {
		t.Error("a line from before the wrap reads as seen")
	}
}
