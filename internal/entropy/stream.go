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
	"sync"
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
	// batch at a time and in place (e.g. bim.Matrix.ApplyBatch via
	// mapping.Mapper.MapBatch), the streaming counterpart of
	// AppProfile's transform argument. The accumulator copies addresses
	// into a scratch buffer first, so the stream's batches are never
	// mutated. With Workers > 1 it is called from that many goroutines
	// concurrently and must be safe for concurrent use.
	BatchTransform func([]uint64)
	// Workers > 1 fans per-TB profiling out across that many goroutines
	// in ProfileStream (typically GOMAXPROCS); folding stays in TB
	// dispatch order, so the result is identical to the sequential one.
	Workers int
	// OnFold, when set, observes the wall time of each accumulate step —
	// one batch fold in the sequential driver, one committed TB profile
	// (or kernel boundary) in the parallel driver. It feeds the
	// accumulate-stage latency histogram in valleyd without the
	// accumulator importing any metrics machinery; it must be cheap and
	// must not panic.
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

// FoldTBProfile feeds one completed TB profile directly (the parallel
// driver computes TBProfiles off-thread and commits them here, in
// dispatch order). The accumulator takes ownership of p.BVR.
func (a *Accumulator) FoldTBProfile(p TBProfile) {
	if a.done {
		panic("entropy: Fold after Profile")
	}
	if !a.kOpen {
		a.openKernel()
	}
	a.commitTB(p)
}

// OpenKernel marks a kernel boundary for drivers that feed TB profiles
// via FoldTBProfile instead of batches.
func (a *Accumulator) OpenKernel() {
	if a.done {
		panic("entropy: Fold after Profile")
	}
	a.closeKernel()
	a.openKernel()
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

// closeTB turns the in-progress TB counts into a TBProfile and commits
// it to the window machinery.
func (a *Accumulator) closeTB() {
	if !a.tbOpen {
		return
	}
	slot := a.count % a.window
	var p TBProfile
	if slot < len(a.ring) {
		p = a.ring[slot] // reuse the slot's BVR storage
		a.ring[slot] = TBProfile{}
	}
	if len(p.BVR) != a.bits {
		p.BVR = make([]Ratio, a.bits)
	}
	p.ID = a.tbID
	p.Requests = a.tbReqs
	total := int64(a.tbReqs)
	for i := 0; i < a.bits; i++ {
		p.BVR[i] = Ratio{Ones: a.ones[i], Total: total}
		a.ones[i] = 0
	}
	a.tbOpen = false
	a.tbReqs = 0
	a.commitTB(p)
}

// commitTB stores one TB profile in its ring slot and folds the window
// it completes, if any.
func (a *Accumulator) commitTB(p TBProfile) {
	slot := a.count % a.window
	if slot == len(a.ring) {
		a.ring = append(a.ring, p)
	} else {
		a.ring[slot] = p
	}
	a.count++
	a.kRequests += p.Requests
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

// ProfileStream drains a trace stream into a Profile. With
// opt.Workers > 1 the per-TB bit counting fans out across that many
// goroutines while window folding stays in dispatch order, so the
// result is identical either way.
func ProfileStream(st trace.Stream, opt StreamOptions) (Profile, error) {
	if opt.Workers > 1 {
		return profileParallel(st, opt)
	}
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

// ---------------------------------------------------------------------
// Parallel per-TB fan-out
// ---------------------------------------------------------------------

// pEvent is one ordered folding event: a kernel boundary or a future
// holding a TB profile being computed by a worker.
type pEvent struct {
	kernel bool
	fut    chan TBProfile
	err    error
}

var reqBufPool = sync.Pool{
	New: func() any { return make([]trace.Request, 0, 4096) },
}

// profileParallel reads the stream on one goroutine, hands each
// completed TB to a bounded worker pool for bit counting, and folds the
// resulting TB profiles in dispatch order on the calling goroutine.
// Memory is O(workers × TB size + window × bits).
func profileParallel(st trace.Stream, opt StreamOptions) (Profile, error) {
	workers := opt.Workers
	acc := NewAccumulator(StreamOptions{Window: opt.Window, Bits: opt.Bits})
	bits := acc.bits

	sem := make(chan struct{}, workers)
	events := make(chan pEvent, workers*2)

	go func() {
		defer close(events)
		buf := reqBufPool.Get().([]trace.Request)[:0]
		var tbID int
		tbOpen := false
		flushTB := func() {
			if !tbOpen {
				return
			}
			tbOpen = false
			sem <- struct{}{}
			fut := make(chan TBProfile, 1)
			job, id := buf, tbID
			go func() {
				fut <- profileRequests(id, job, bits, opt.BatchTransform)
				reqBufPool.Put(job[:0])
				<-sem
			}()
			events <- pEvent{fut: fut}
			buf = reqBufPool.Get().([]trace.Request)[:0]
		}
		for {
			b, err := st.Next()
			if err == io.EOF {
				flushTB()
				return
			}
			if err != nil {
				events <- pEvent{err: err}
				return
			}
			if b.Kernel != nil {
				flushTB()
				events <- pEvent{kernel: true}
				continue
			}
			if b.TBStart {
				flushTB()
				tbOpen = true
				tbID = b.TBID
			}
			if len(b.Requests) > 0 {
				if !tbOpen {
					tbOpen = true
					tbID = b.TBID
				}
				buf = append(buf, b.Requests...)
			}
		}
	}()

	var streamErr error
	for ev := range events {
		var start time.Time
		if opt.OnFold != nil {
			start = time.Now()
		}
		switch {
		case ev.err != nil:
			streamErr = ev.err
			continue
		case ev.kernel:
			acc.OpenKernel()
		default:
			acc.FoldTBProfile(<-ev.fut)
		}
		if opt.OnFold != nil {
			opt.OnFold(time.Since(start))
		}
	}
	if streamErr != nil {
		return Profile{}, streamErr
	}
	return acc.Profile(), nil
}

// profileRequests computes one TB's profile, applying the optional
// batch transform — the worker-side half of profileParallel.
func profileRequests(id int, reqs []trace.Request, bits int, bf func([]uint64)) TBProfile {
	ones := make([]int64, bits)
	if bf != nil {
		addrs := make([]uint64, len(reqs))
		for i, r := range reqs {
			addrs[i] = r.Addr
		}
		bf(addrs)
		for _, addr := range addrs {
			countAddrBits(ones, addr, bits)
		}
	} else {
		for _, r := range reqs {
			countAddrBits(ones, r.Addr, bits)
		}
	}
	p := TBProfile{ID: id, BVR: make([]Ratio, bits), Requests: len(reqs)}
	total := int64(len(reqs))
	for i := 0; i < bits; i++ {
		p.BVR[i] = Ratio{Ones: ones[i], Total: total}
	}
	return p
}
