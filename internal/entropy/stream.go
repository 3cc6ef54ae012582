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
// independent of trace length. The Accumulator reproduces the
// materialized AppProfile arithmetic operation for operation (same
// summation order, same Ratio dedup, same divisions), so the streamed
// Profile is bit-identical to the materialized one; the golden
// equivalence tests in stream_test.go pin that down for every built-in
// workload.

import (
	"io"
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

	// Current kernel: ring of the last ≤ window TB profiles plus the
	// running per-bit window-entropy sums (WindowEntropy, online).
	kOpen     bool
	ring      []TBProfile // grown on demand to min(TBs, window) slots
	count     int         // TBs completed in the current kernel
	sums      []float64
	windows   int
	kRequests int

	// Scratch for per-window entropy (windowEntropyBit's locals).
	vals   []Ratio
	counts []int
	probs  []float64

	// Current TB.
	tbOpen bool
	tbID   int
	tbReqs int
	ones   []int64

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
		sums:      make([]float64, bits),
		ones:      make([]int64, bits),
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
		a.tbID = b.TBID
	}
	if len(b.Requests) == 0 {
		return
	}
	if !a.kOpen {
		a.openKernel()
	}
	if !a.tbOpen {
		a.tbOpen = true
		a.tbID = b.TBID
	}
	if a.bf != nil {
		a.scratch = a.scratch[:0]
		for _, r := range b.Requests {
			a.scratch = append(a.scratch, r.Addr)
		}
		a.bf(a.scratch)
		for _, addr := range a.scratch {
			countAddrBits(a.ones, addr, a.bits)
		}
	} else {
		for _, r := range b.Requests {
			countAddrBits(a.ones, r.Addr, a.bits)
		}
	}
	a.tbReqs += len(b.Requests)
}

func (a *Accumulator) openKernel() {
	a.kOpen = true
	a.count = 0
	a.windows = 0
	a.kRequests = 0
	a.ring = a.ring[:0]
	for i := range a.sums {
		a.sums[i] = 0
	}
}

// closeTB turns the in-progress TB counts into a TBProfile in its ring
// slot and folds the window it completes, if any.
func (a *Accumulator) closeTB() {
	if !a.tbOpen {
		return
	}
	slot := a.count % a.window
	if slot == len(a.ring) {
		a.ring = append(a.ring, TBProfile{BVR: make([]Ratio, a.bits)})
	}
	p := &a.ring[slot] // reuses the slot's BVR storage
	p.ID = a.tbID
	p.Requests = a.tbReqs
	total := int64(a.tbReqs)
	for i := 0; i < a.bits; i++ {
		p.BVR[i] = Ratio{Ones: a.ones[i], Total: total}
		a.ones[i] = 0
	}
	a.count++
	a.kRequests += a.tbReqs
	a.tbOpen = false
	a.tbReqs = 0
	if a.count >= a.window {
		a.foldWindow(a.count-a.window, a.window)
	}
}

// foldWindow adds the entropy of the window starting at TB sequence
// index start with effective width w to the per-bit sums — the exact
// inner computation of windowEntropyBit, per bit in the same order.
func (a *Accumulator) foldWindow(start, w int) {
	for b := 0; b < a.bits; b++ {
		a.vals = a.vals[:0]
		a.counts = a.counts[:0]
		a.probs = a.probs[:0]
	next:
		for k := 0; k < w; k++ {
			r := a.ring[(start+k)%a.window].BVR[b]
			for j, v := range a.vals {
				if v.Eq(r) {
					a.counts[j]++
					continue next
				}
			}
			a.vals = append(a.vals, r)
			a.counts = append(a.counts, 1)
		}
		for _, c := range a.counts {
			a.probs = append(a.probs, float64(c)/float64(w))
		}
		a.sums[b] += ShannonNormalized(a.probs)
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
