// Package entropy implements the window-based address-bit entropy metric
// of "Get Out of the Valley" (ISCA 2018), Section III.
//
// GPU memory requests from concurrent Thread Blocks interleave
// nondeterministically, so bit-flip-rate entropy estimators are
// unreliable. The window-based metric instead:
//
//  1. computes, per TB and per address bit, the Bit Value Ratio (BVR) —
//     the fraction of requests in which the bit is 1 (intra-TB entropy
//     without ordering assumptions);
//  2. slides a window of w TBs (w ≈ TBs executing concurrently ≈ number
//     of SMs under GTO scheduling) across the TB sequence in dispatch
//     order, and computes the Shannon entropy of the BVR-value
//     distribution inside each window with log base v = the number of
//     distinct BVR values (Equation 1);
//  3. averages the n−w+1 window entropies into H* (Equation 2);
//  4. averages per-kernel profiles weighted by request counts.
package entropy

import (
	"math"
	"math/bits"

	"valleymap/internal/trace"
)

// DefaultLow and DefaultHigh are the repo-wide valley-classification
// thresholds (the qualitative Figure 5 split): a bit at or below
// DefaultLow is "dead", and a valley only counts when some higher bit
// reaches DefaultHigh (harvestable entropy, Section III-B).
const (
	DefaultLow  = 0.35
	DefaultHigh = 0.6
)

// DefaultWindow and DefaultBits are the repo-wide analysis defaults: a
// window of 12 TBs, the baseline configuration's SM count (the paper's
// heuristic for w), over the 30-bit physical addresses of the 1 GB
// Hynix GDDR5 part.
const (
	DefaultWindow = 12
	DefaultBits   = 30
)

// Ratio is an exact BVR: Ones one-bits observed out of Total requests.
// Exact rationals avoid floating-point fuzz when counting distinct BVR
// values inside a window.
type Ratio struct {
	Ones, Total int64
}

// Eq reports whether two ratios denote the same value (cross-multiplied,
// so 1/2 equals 2/4). Ratios with Total == 0 are only equal to each other.
func (r Ratio) Eq(o Ratio) bool {
	if r.Total == 0 || o.Total == 0 {
		return r.Total == o.Total
	}
	return r.Ones*o.Total == o.Ones*r.Total
}

// Value returns the BVR as a float in [0,1]; 0 when empty.
func (r Ratio) Value() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Ones) / float64(r.Total)
}

// TBProfile is the per-TB summary the window metric consumes: one BVR per
// address bit plus the TB's request count.
type TBProfile struct {
	ID       int
	BVR      []Ratio
	Requests int
}

// ProfileTB computes the BVR of every address bit across a TB's requests.
func ProfileTB(tb *trace.TB, bits int) TBProfile {
	p := TBProfile{ID: tb.ID, BVR: make([]Ratio, bits), Requests: len(tb.Requests)}
	total := int64(len(tb.Requests))
	ones := make([]int64, bits)
	for _, req := range tb.Requests {
		countAddrBits(ones, req.Addr, bits)
	}
	for i := 0; i < bits; i++ {
		p.BVR[i] = Ratio{Ones: ones[i], Total: total}
	}
	return p
}

// countAddrBits adds addr's one-bits below width into ones, one
// trailing-zero count per one-bit. It is the materialized profiler's
// counting kernel and the reference for the streaming profiler's byte
// lanes (laneCounter), which must count the same bits.
func countAddrBits(ones []int64, addr uint64, width int) {
	for a := addr; a != 0; a &= a - 1 {
		if b := bits.TrailingZeros64(a); b < width {
			ones[b]++
		}
	}
}

// ShannonNormalized computes Equation 1: −Σ pᵢ log_v pᵢ with v = number of
// probabilities. With v < 2 the entropy is 0 (a constant value carries no
// information); with v == 2 this is the familiar base-2 entropy, so the
// paper's footnote example {2/3, 1/3} yields 0.918. Each term is rounded
// to float64 before it is subtracted, so no platform fuses the multiply
// and the subtraction, and the streaming profiler's table of terms
// (entropyTable) reproduces the sum exactly.
func ShannonNormalized(probs []float64) float64 {
	v := len(probs)
	if v < 2 {
		return 0
	}
	h := 0.0
	for _, p := range probs {
		if p > 0 {
			h -= float64(p * math.Log(p))
		}
	}
	return h / math.Log(float64(v))
}

// windowEntropyBit computes the mean window entropy of a single bit given
// the per-TB BVRs in dispatch order (Equation 2).
func windowEntropyBit(bvrs []Ratio, w int) float64 {
	n := len(bvrs)
	if w <= 0 {
		w = 1
	}
	if w > n {
		w = n
	}
	windows := n - w + 1
	if windows <= 0 {
		return 0
	}
	sum := 0.0
	// counts holds occurrences of each distinct BVR value in the window.
	vals := make([]Ratio, 0, w)
	counts := make([]int, 0, w)
	probs := make([]float64, 0, w)
	for start := 0; start < windows; start++ {
		vals = vals[:0]
		counts = counts[:0]
		probs = probs[:0]
	next:
		for i := start; i < start+w; i++ {
			for j, v := range vals {
				if v.Eq(bvrs[i]) {
					counts[j]++
					continue next
				}
			}
			vals = append(vals, bvrs[i])
			counts = append(counts, 1)
		}
		for _, c := range counts {
			probs = append(probs, float64(c)/float64(w))
		}
		sum += ShannonNormalized(probs)
	}
	return sum / float64(windows)
}

// Profile is a per-bit entropy distribution with the request weight that
// produced it.
type Profile struct {
	// PerBit[i] is H* of address bit i, in [0,1].
	PerBit []float64
	// Requests is the number of memory requests the profile covers; it
	// is the kernel weight in application-level aggregation.
	Requests int
}

// WindowEntropy computes the per-bit window-based entropy H* over a
// sequence of TB profiles sorted by TB ID (Equation 2).
func WindowEntropy(tbs []TBProfile, window, bits int) Profile {
	out := Profile{PerBit: make([]float64, bits)}
	for _, tb := range tbs {
		out.Requests += tb.Requests
	}
	if len(tbs) == 0 {
		return out
	}
	col := make([]Ratio, len(tbs))
	for b := 0; b < bits; b++ {
		for i, tb := range tbs {
			col[i] = tb.BVR[b]
		}
		out.PerBit[b] = windowEntropyBit(col, window)
	}
	return out
}

// Transform maps request addresses before profiling; nil means identity.
// It lets one compute post-mapping entropy distributions (Figure 10).
type Transform func(uint64) uint64

// KernelProfile computes the window entropy of one kernel, optionally
// after an address transform.
func KernelProfile(k *trace.Kernel, window, bits int, f Transform) Profile {
	tbs := make([]TBProfile, 0, len(k.TBs))
	for i := range k.TBs {
		tb := &k.TBs[i]
		if f == nil {
			tbs = append(tbs, ProfileTB(tb, bits))
		} else {
			mapped := trace.TB{ID: tb.ID, Requests: make([]trace.Request, len(tb.Requests))}
			for j, r := range tb.Requests {
				r.Addr = f(r.Addr)
				mapped.Requests[j] = r
			}
			tbs = append(tbs, ProfileTB(&mapped, bits))
		}
	}
	return WindowEntropy(tbs, window, bits)
}

// AppProfile computes the application-level entropy distribution: the
// per-kernel profiles weighted by each kernel's request count
// (Section III-A). TBs of different kernels never share a window because
// kernels do not co-execute.
func AppProfile(a *trace.App, window, bits int, f Transform) Profile {
	out := Profile{PerBit: make([]float64, bits)}
	for ki := range a.Kernels {
		kp := KernelProfile(&a.Kernels[ki], window, bits, f)
		for b := range out.PerBit {
			out.PerBit[b] += kp.PerBit[b] * float64(kp.Requests)
		}
		out.Requests += kp.Requests
	}
	if out.Requests > 0 {
		for b := range out.PerBit {
			out.PerBit[b] /= float64(out.Requests)
		}
	}
	return out
}

// Mean returns the average entropy over the given bit positions.
// Positions outside the profile are ignored; an empty selection (or one
// with no in-range positions) yields the documented sentinel 0 — "no
// bits selected" carries no entropy, and callers never see NaN or an
// index panic.
func (p Profile) Mean(positions []int) float64 {
	s, n := 0.0, 0
	for _, b := range positions {
		if b >= 0 && b < len(p.PerBit) {
			s += p.PerBit[b]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

// Min returns the minimum entropy over the given bit positions.
// Positions outside the profile are ignored; an empty selection (or one
// with no in-range positions) yields the documented sentinel 0 — with no
// bits to measure, no entropy is guaranteed, mirroring Mean's false-style
// empty value rather than vacuously claiming full entropy.
func (p Profile) Min(positions []int) float64 {
	min, n := 1.0, 0
	for _, b := range positions {
		if b < 0 || b >= len(p.PerBit) {
			continue
		}
		n++
		if p.PerBit[b] < min {
			min = p.PerBit[b]
		}
	}
	if n == 0 {
		return 0
	}
	return min
}

// ChannelBankValley applies the paper's qualitative Figure 5
// classification: the workload has an entropy valley when the channel
// bits are (near-)dead, or at least two bank bits are, while high-entropy
// bits exist above the candidate range. Single dead bank bits are common
// even in the paper's non-valley group and do not count.
func (p Profile) ChannelBankValley(chBits, bankBits []int, low, high float64) bool {
	deadCh := false
	for _, b := range chBits {
		if p.PerBit[b] <= low {
			deadCh = true
			break
		}
	}
	deadBanks := 0
	for _, b := range bankBits {
		if p.PerBit[b] <= low {
			deadBanks++
		}
	}
	if !deadCh && deadBanks < 2 {
		return false
	}
	// A valley needs harvestable entropy above it (Section III-B).
	maxBit := 0
	for _, b := range append(append([]int(nil), chBits...), bankBits...) {
		if b > maxBit {
			maxBit = b
		}
	}
	for b := maxBit + 1; b < len(p.PerBit); b++ {
		if p.PerBit[b] >= high {
			return true
		}
	}
	return false
}

// Range is a maximal run of contiguous address bits [Lo, Hi] whose
// entropy falls at or below a threshold — one "valley" of the profile.
type Range struct {
	Lo, Hi int
}

// ValleyRanges returns the maximal runs of dead bits (entropy ≤ low)
// that sit *below* harvestable entropy: a run only counts as a valley
// when some higher-order bit reaches the high threshold, mirroring
// ChannelBankValley's Section III-B rule that a valley needs entropy
// above it to harvest. Runs are reported in ascending bit order.
func (p Profile) ValleyRanges(low, high float64) []Range {
	n := len(p.PerBit)
	var out []Range
	seenHigh := false
	// Scan MSB→LSB so "entropy above" is known when a run closes.
	runHi := -1
	for b := n - 1; b >= 0; b-- {
		dead := p.PerBit[b] <= low
		if dead && seenHigh {
			if runHi < 0 {
				runHi = b
			}
		} else {
			if runHi >= 0 {
				out = append(out, Range{Lo: b + 1, Hi: runHi})
				runHi = -1
			}
			if p.PerBit[b] >= high {
				seenHigh = true
			}
		}
	}
	if runHi >= 0 {
		out = append(out, Range{Lo: 0, Hi: runHi})
	}
	// Reverse into ascending order.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}
