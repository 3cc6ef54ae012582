package trace

// Coalescing merges the per-thread accesses of one warp-instruction into
// line-granular memory transactions, exactly like a GPU's memory
// coalescing unit. Both the entropy analysis and the simulator operate on
// coalesced transactions: those are the requests that exist in the memory
// system (Section III talks about "memory requests ... likely to co-exist
// in the memory system", and the paper's address mapper sits right after
// the coalescer).
//
// A warp-instruction is approximated as a maximal run of consecutive
// requests from the same warp with the same kind, which matches how the
// workload generators emit traces (thread-major within a warp).

import "math/bits"

// DefaultLineBytes is the coalescing granularity the coalescers use for
// a line size ≤ 0: the 128-byte L1 line of the simulated GPU.
const DefaultLineBytes = 128

// CoalesceTB returns a new TB whose requests are the coalesced
// transactions of tb at the given line size. Transaction addresses are
// line-aligned. Order of first touch is preserved.
func CoalesceTB(tb *TB, lineBytes int) TB {
	var c Coalescer
	return *c.Coalesce(tb, lineBytes)
}

// Coalescer coalesces TBs one at a time into buffers it reuses: its
// output TB and its dedup set. Once both have grown to the largest TB
// seen, Coalesce does not allocate. The simulator keeps one per runner
// and coalesces every TB launch through it. A Coalescer is not safe for
// concurrent use; its zero value is ready.
type Coalescer struct {
	out   TB
	lines lineSet
}

// Coalesce coalesces tb at the given line size (≤ 0 means
// DefaultLineBytes) into the Coalescer's output TB and returns it, as
// CoalesceTB would. The result is valid until the next call.
func (c *Coalescer) Coalesce(tb *TB, lineBytes int) *TB {
	dst := &c.out
	dst.ID = tb.ID
	dst.Requests = dst.Requests[:0]
	if lineBytes <= 0 {
		lineBytes = DefaultLineBytes
	}
	mask := ^uint64(lineBytes - 1)
	i := 0
	reqs := tb.Requests
	for i < len(reqs) {
		j := i
		for j < len(reqs) && reqs[j].Warp == reqs[i].Warp && reqs[j].Kind == reqs[i].Kind {
			j++
		}
		c.lines.reset()
		for _, r := range reqs[i:j] {
			if la := r.Addr & mask; c.lines.add(la) {
				dst.Requests = append(dst.Requests, Request{Addr: la, Kind: reqs[i].Kind, Warp: reqs[i].Warp})
			}
		}
		i = j
	}
	return dst
}

// lineSet is the coalescers' one dedup kernel: the line addresses seen
// in the current warp-instruction run, in an open-addressed hash table
// with linear probing. reset empties it in O(1) by bumping a
// generation, and a slot belongs to the set only while its generation
// is current. The table doubles when half full and never shrinks, so a
// warm set does not allocate. The zero value is an empty set.
type lineSet struct {
	slots []lineSlot
	shift uint   // 64 − log2(len(slots)): a hash's top bits pick the slot
	gen   uint32 // the current run's generation, ≥ 1 once slots exist
	n     int    // lines in the current run
	last  uint64 // the line of the previous add
}

type lineSlot struct {
	line uint64
	gen  uint32
}

// reset starts a new, empty run.
func (s *lineSet) reset() {
	s.n = 0
	if s.gen++; s.gen == 0 {
		// The generation wrapped, so stale slots could look current.
		clear(s.slots)
		s.gen = 1
	}
}

// add inserts line into the run's set and reports whether it was new.
// Consecutive accesses to one line, a warp's common case, are answered
// without hashing.
func (s *lineSet) add(line uint64) bool {
	if s.n > 0 && line == s.last {
		return false
	}
	s.last = line
	if 2*(s.n+1) > len(s.slots) {
		s.grow()
	}
	return s.insert(line)
}

func (s *lineSet) insert(line uint64) bool {
	mask := len(s.slots) - 1
	for i := int(line * 0x9e3779b97f4a7c15 >> s.shift); ; i = (i + 1) & mask {
		sl := &s.slots[i]
		if sl.gen != s.gen {
			sl.line, sl.gen = line, s.gen
			s.n++
			return true
		}
		if sl.line == line {
			return false
		}
	}
}

// grow doubles the table (to at least 64 slots) and reinserts the
// current run.
func (s *lineSet) grow() {
	old := s.slots
	size := max(2*len(old), 64)
	s.slots = make([]lineSlot, size)
	s.shift = uint(64 - bits.TrailingZeros(uint(size)))
	s.n = 0
	if s.gen == 0 {
		// New slots are generation 0, which must not read as current.
		s.gen = 1
	}
	for _, sl := range old {
		if sl.gen == s.gen {
			s.insert(sl.line)
		}
	}
}

// CoalesceKernel coalesces every TB of a kernel.
func CoalesceKernel(k *Kernel, lineBytes int) Kernel {
	out := Kernel{Name: k.Name, WarpsPerTB: k.WarpsPerTB, ComputeGapCycles: k.ComputeGapCycles}
	out.TBs = make([]TB, len(k.TBs))
	for i := range k.TBs {
		out.TBs[i] = CoalesceTB(&k.TBs[i], lineBytes)
	}
	return out
}

// CoalesceApp coalesces a whole application trace.
func CoalesceApp(a *App, lineBytes int) *App {
	out := &App{Name: a.Name, Abbr: a.Abbr, Valley: a.Valley, InsnPerAccess: a.InsnPerAccess}
	out.Kernels = make([]Kernel, len(a.Kernels))
	for i := range a.Kernels {
		out.Kernels[i] = CoalesceKernel(&a.Kernels[i], lineBytes)
	}
	return out
}
