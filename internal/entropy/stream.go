package entropy

// Online windowed profiling: the streaming counterpart of AppProfile.
// The window-based metric (Section III) is a one-pass computation — each
// TB contributes one BVR vector, each window of w consecutive TBs
// contributes one entropy sample per bit — so a trace can be profiled as
// it is generated or decoded, holding only
//
//   - the current TB's per-bit one-counts           O(bits)
//   - the last min(w, TBs) TB profiles (the window) O(window × bits)
//   - the running per-bit window-entropy sums       O(bits)
//
// independent of trace length.
//
// The Accumulator's three kernels are the fast ones; the materialized
// path in entropy.go (countAddrBits, windowEntropyBit,
// ShannonNormalized) is the reference they must match:
//
//   - Bit counting adds each address a byte at a time into byte-lane
//     counters (laneCounter): one table lookup counts a byte's eight
//     bits in eight 8-bit lanes of one word. The lanes are flushed into
//     the per-bit counts every 255 rows, before a lane can overflow,
//     and at each TB close.
//   - The window keeps its BVRs column-major, one ring column per bit,
//     and a window is walked with a wrapping slot index.
//   - Equation 1 reads each distinct value's p·ln p term and the
//     normalizer ln v from a per-width table (entropyTable), summing the
//     terms in the same first-appearance order as windowEntropyBit.
//
// Each kernel performs the reference's arithmetic operation for
// operation (same summation order, same Ratio equality, same divisions),
// so the streamed Profile is bit-identical to the materialized one. The
// golden tests in stream_test.go pin that down for every built-in
// workload, TestProfileDigest pins the values themselves, and
// TestEntropyTableMatchesShannon checks the table against
// ShannonNormalized over every count composition of w ≤ 12.

import (
	"io"
	"math"
	"time"

	"valleymap/internal/trace"
)

// StreamOptions parameterizes streaming profiling.
type StreamOptions struct {
	// Window is the window size w in TBs (< 1 is clamped to 1, like the
	// materialized path).
	Window int
	// Bits is the number of address bits profiled.
	Bits int
	// BatchTransform optionally maps addresses before profiling, a
	// batch at a time and in place (e.g. mapping.Mapper.MapBatch, which
	// applies the mapper's compiled bim.Table), the streaming
	// counterpart of AppProfile's transform argument. The accumulator
	// copies addresses into a scratch buffer first, so the stream's
	// batches are never mutated.
	BatchTransform func([]uint64)
	// OnFold, when set, observes the wall time of each batch fold in
	// ProfileStream. It feeds the accumulate-stage latency histogram in
	// valleyd without the accumulator importing any metrics machinery;
	// it must be cheap and must not panic.
	OnFold func(time.Duration)
}

// Accumulator folds a request stream into a Profile online. Feed it
// batches in stream order with Fold, then call Profile once at end of
// stream. The zero value is unusable; construct with NewAccumulator.
// An Accumulator is not safe for concurrent use.
type Accumulator struct {
	window, bits int
	bf           func([]uint64)
	scratch      []uint64

	// Application-level aggregation (AppProfile's weighted sum).
	appPerBit   []float64
	appRequests int

	// Current kernel: a ring of the last ≤ window TBs' BVRs plus the
	// running per-bit window-entropy sums (WindowEntropy, online). The
	// ring grows on demand to min(TBs, window) slots.
	kOpen     bool
	ones      [][]int64 // ones[b][slot]: bit b's one-count in the slot's TB
	totals    []int64   // totals[slot]: the slot's TB's request count
	next      int       // ring slot of the next closing TB
	count     int       // TBs completed in the current kernel
	sums      []float64
	windows   int
	kRequests int

	// Per-window scratch: the distinct BVRs of one bit's window in
	// first-appearance order, and how often each occurs.
	tab      entropyTable
	valOnes  []int64
	valTotal []int64
	counts   []int

	// Current TB.
	tbOpen bool
	tbReqs int
	lanes  laneCounter
	tbOnes []int64

	done bool
}

// NewAccumulator builds a streaming profiler. Memory is
// O(window × bits), allocated lazily as TBs arrive (a kernel with fewer
// TBs than the window never grows the ring past its TB count).
func NewAccumulator(opt StreamOptions) *Accumulator {
	w := opt.Window
	if w < 1 {
		w = 1
	}
	bits := opt.Bits
	if bits < 0 {
		bits = 0
	}
	return &Accumulator{
		window:    w,
		bits:      bits,
		bf:        opt.BatchTransform,
		appPerBit: make([]float64, bits),
		ones:      make([][]int64, bits),
		sums:      make([]float64, bits),
		lanes:     laneCounter{wide: bits > 32},
		tbOnes:    make([]int64, bits),
	}
}

// Fold consumes one batch. Batches must arrive in stream order
// (header, then the kernel's TBs in dispatch order); headerless streams
// are tolerated by opening an implicit kernel.
func (a *Accumulator) Fold(b *trace.Batch) {
	if a.done {
		panic("entropy: Fold after Profile")
	}
	if b.Kernel != nil {
		a.closeKernel()
		a.openKernel()
		return
	}
	if b.TBStart {
		a.closeTB()
		if !a.kOpen {
			a.openKernel()
		}
		a.tbOpen = true
	}
	if len(b.Requests) == 0 {
		return
	}
	if !a.kOpen {
		a.openKernel()
	}
	a.tbOpen = true
	a.scratch = a.scratch[:0]
	for _, r := range b.Requests {
		a.scratch = append(a.scratch, r.Addr)
	}
	if a.bf != nil {
		a.bf(a.scratch)
	}
	a.lanes.add(a.scratch, a.tbOnes)
	a.tbReqs += len(b.Requests)
}

func (a *Accumulator) openKernel() {
	a.kOpen = true
	a.count = 0
	a.next = 0
	a.windows = 0
	a.kRequests = 0
	a.totals = a.totals[:0]
	for b := range a.ones {
		a.ones[b] = a.ones[b][:0]
	}
	for i := range a.sums {
		a.sums[i] = 0
	}
}

// closeTB stores the in-progress TB's BVRs in its ring slot and folds
// the window it completes, if any.
func (a *Accumulator) closeTB() {
	if !a.tbOpen {
		return
	}
	a.lanes.flush(a.tbOnes)
	total := int64(a.tbReqs)
	// Ratio.Eq makes an empty TB's 0/0 equal only to another 0/0. The
	// cross-multiplied test in foldWindow gets the same answer when the
	// ring stores 0/0 as 1/0.
	empty := int64(0)
	if total == 0 {
		empty = 1
	}
	slot := a.next
	if slot == len(a.totals) {
		a.totals = append(a.totals, total)
		for b, n := range a.tbOnes {
			a.ones[b] = append(a.ones[b], n+empty)
		}
	} else {
		a.totals[slot] = total
		for b, n := range a.tbOnes {
			a.ones[b][slot] = n + empty
		}
	}
	clear(a.tbOnes)
	if a.next++; a.next == a.window {
		a.next = 0
	}
	a.count++
	a.kRequests += a.tbReqs
	a.tbOpen = false
	a.tbReqs = 0
	if a.count >= a.window {
		// The ring is full and its oldest TB sits in the next slot.
		a.foldWindow(a.next, a.window)
	}
}

// foldWindow adds the entropy of the w TBs from ring slot head on to
// the per-bit sums: windowEntropyBit's inner computation, per bit in
// the same order, with the distinct BVRs counted in first-appearance
// order and compared by cross-multiplication as Ratio.Eq does.
func (a *Accumulator) foldWindow(head, w int) {
	a.tab.setWidth(w)
	if len(a.counts) < w {
		a.valOnes = make([]int64, w)
		a.valTotal = make([]int64, w)
		a.counts = make([]int, w)
	}
	vo, vt, counts := a.valOnes[:w], a.valTotal[:w], a.counts[:w]
	totals := a.totals
	for b, col := range a.ones {
		col = col[:len(totals)]
		v := 0
		s := head
		for k := 0; k < w; k++ {
			o, t := col[s], totals[s]
			if s++; s == len(totals) {
				s = 0
			}
			j := 0
			for j < v && vo[j]*t != o*vt[j] {
				j++
			}
			if j == v {
				vo[v], vt[v], counts[v] = o, t, 0
				v++
			}
			counts[j]++
		}
		a.sums[b] += a.tab.eval(counts[:v])
	}
	a.windows++
}

// closeKernel finalizes the current kernel and folds its weighted
// profile into the application aggregate.
func (a *Accumulator) closeKernel() {
	a.closeTB()
	if !a.kOpen {
		return
	}
	a.kOpen = false
	if a.count > 0 && a.windows == 0 {
		// Fewer TBs than the window: one window over all of them, with
		// the effective width the materialized path clamps to.
		a.foldWindow(0, a.count)
	}
	if a.windows > 0 {
		for b := 0; b < a.bits; b++ {
			a.appPerBit[b] += a.sums[b] / float64(a.windows) * float64(a.kRequests)
		}
	}
	a.appRequests += a.kRequests
}

// Profile finalizes the accumulator and returns the application-level
// profile, identical to AppProfile over the same (coalesced,
// transformed) trace. The accumulator cannot be folded into afterwards.
func (a *Accumulator) Profile() Profile {
	if !a.done {
		a.closeKernel()
		a.done = true
	}
	out := Profile{PerBit: make([]float64, a.bits), Requests: a.appRequests}
	copy(out.PerBit, a.appPerBit)
	if out.Requests > 0 {
		for b := range out.PerBit {
			out.PerBit[b] /= float64(out.Requests)
		}
	}
	return out
}

// spread[x] holds bit i of the byte x in byte i, so adding it to a lane
// word counts x's eight bits in eight 8-bit counters at once.
var spread = func() (t [256]uint64) {
	for x := range t {
		for i := 0; i < 8; i++ {
			t[x] |= uint64(x>>i&1) << (8 * i)
		}
	}
	return t
}()

// laneCounter counts one-bits per address bit, countAddrBits' fast
// equivalent. Lane j holds the counts of bits 8j to 8j+7, one per byte,
// so a byte's counter would overflow after 255 rows: flush moves the
// lanes into per-bit counts by then, and at each TB close.
type laneCounter struct {
	lanes [8]uint64
	wide  bool // some profiled bit is above bit 31
	rows  int  // rows added since the last flush, < laneRows
}

const laneRows = 255

// add counts the one-bits of addrs, flushing into ones every laneRows
// rows.
func (c *laneCounter) add(addrs []uint64, ones []int64) {
	for len(addrs) > 0 {
		k := min(len(addrs), laneRows-c.rows)
		if c.wide {
			c.add8(addrs[:k])
		} else {
			c.add4(addrs[:k])
		}
		if c.rows += k; c.rows == laneRows {
			c.flush(ones)
		}
		addrs = addrs[k:]
	}
}

// add4 counts address bits 0 to 31, with its four lanes in registers.
func (c *laneCounter) add4(addrs []uint64) {
	l0, l1, l2, l3 := c.lanes[0], c.lanes[1], c.lanes[2], c.lanes[3]
	for _, a := range addrs {
		l0 += spread[uint8(a)]
		l1 += spread[uint8(a>>8)]
		l2 += spread[uint8(a>>16)]
		l3 += spread[uint8(a>>24)]
	}
	c.lanes[0], c.lanes[1], c.lanes[2], c.lanes[3] = l0, l1, l2, l3
}

// add8 counts all 64 address bits.
func (c *laneCounter) add8(addrs []uint64) {
	l := c.lanes
	for _, a := range addrs {
		l[0] += spread[uint8(a)]
		l[1] += spread[uint8(a>>8)]
		l[2] += spread[uint8(a>>16)]
		l[3] += spread[uint8(a>>24)]
		l[4] += spread[uint8(a>>32)]
		l[5] += spread[uint8(a>>40)]
		l[6] += spread[uint8(a>>48)]
		l[7] += spread[uint8(a>>56)]
	}
	c.lanes = l
}

// flush adds the lane counts of the bits below len(ones) into ones and
// clears the lanes. Bits 64 and above never count, as in countAddrBits.
func (c *laneCounter) flush(ones []int64) {
	if c.rows == 0 {
		return
	}
	for b := range ones[:min(len(ones), 64)] {
		ones[b] += int64(c.lanes[b>>3] >> (8 * (b & 7)) & 0xff)
	}
	c.lanes = [8]uint64{}
	c.rows = 0
}

// entropyTable evaluates Equation 1 for windows of one width w from
// precomputed terms: plogp[c] is p·ln p of a value seen c times
// (p = c/w) and lnv[v] is the normalizer ln v. eval performs
// ShannonNormalized's arithmetic term for term.
type entropyTable struct {
	w     int
	plogp []float64 // index 1..w
	lnv   []float64 // index 2..w
}

// setWidth rebuilds the table when the window width changes.
func (t *entropyTable) setWidth(w int) {
	if t.w == w {
		return
	}
	t.w = w
	t.plogp = append(t.plogp[:0], 0)
	t.lnv = append(t.lnv[:0], 0)
	for c := 1; c <= w; c++ {
		p := float64(c) / float64(w)
		t.plogp = append(t.plogp, float64(p*math.Log(p)))
		t.lnv = append(t.lnv, math.Log(float64(c)))
	}
}

// eval returns the normalized entropy of a window whose distinct
// values occur counts times, in first-appearance order: exactly
// ShannonNormalized over the probabilities counts[i]/w.
func (t *entropyTable) eval(counts []int) float64 {
	v := len(counts)
	if v < 2 {
		return 0
	}
	h := 0.0
	for _, c := range counts {
		h -= t.plogp[c]
	}
	return h / t.lnv[v]
}

// ProfileStream drains a trace stream into a Profile in one sequential
// pass, folding each batch in stream order.
func ProfileStream(st trace.Stream, opt StreamOptions) (Profile, error) {
	acc := NewAccumulator(opt)
	for {
		b, err := st.Next()
		if err == io.EOF {
			return acc.Profile(), nil
		}
		if err != nil {
			return Profile{}, err
		}
		if opt.OnFold != nil {
			start := time.Now()
			acc.Fold(b)
			opt.OnFold(time.Since(start))
		} else {
			acc.Fold(b)
		}
	}
}
