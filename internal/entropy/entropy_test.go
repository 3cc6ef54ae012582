package entropy

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"valleymap/internal/trace"
)

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s: got %v, want %v (tol %v)", msg, got, want, tol)
	}
}

func TestRatioEq(t *testing.T) {
	if !(Ratio{1, 2}).Eq(Ratio{2, 4}) {
		t.Error("1/2 should equal 2/4")
	}
	if (Ratio{1, 3}).Eq(Ratio{1, 2}) {
		t.Error("1/3 should not equal 1/2")
	}
	if !(Ratio{0, 0}).Eq(Ratio{0, 0}) {
		t.Error("empty equals empty")
	}
	if (Ratio{0, 0}).Eq(Ratio{0, 5}) {
		t.Error("empty should not equal 0/5")
	}
	if v := (Ratio{3, 4}).Value(); v != 0.75 {
		t.Errorf("Value = %v", v)
	}
	if v := (Ratio{0, 0}).Value(); v != 0 {
		t.Errorf("empty Value = %v", v)
	}
}

func TestShannonFootnoteExample(t *testing.T) {
	// Paper footnote 1: BVRs {0,0,1} in a window of 3: p = {2/3, 1/3},
	// v = 2 unique values, H = 0.92.
	h := ShannonNormalized([]float64{2.0 / 3, 1.0 / 3})
	approx(t, h, 0.918, 0.001, "footnote example")
}

func TestShannonEdgeCases(t *testing.T) {
	if h := ShannonNormalized(nil); h != 0 {
		t.Errorf("empty = %v", h)
	}
	if h := ShannonNormalized([]float64{1}); h != 0 {
		t.Errorf("single value = %v", h)
	}
	approx(t, ShannonNormalized([]float64{0.5, 0.5}), 1, 1e-12, "uniform v=2")
	approx(t, ShannonNormalized([]float64{0.25, 0.25, 0.25, 0.25}), 1, 1e-12, "uniform v=4")
	// Entropy is normalized to [0,1] even for v>2.
	h := ShannonNormalized([]float64{0.9, 0.05, 0.05})
	if h <= 0 || h >= 1 {
		t.Errorf("skewed v=3 entropy = %v, want in (0,1)", h)
	}
}

// tbWithBVR builds a TB whose single address bit 0 has the given BVR.
func tbWithBVR(id int, bvr int) TBProfile {
	return TBProfile{ID: id, BVR: []Ratio{{Ones: int64(bvr), Total: 1}}, Requests: 1}
}

// TestFigure3 reproduces the worked example of Figure 3: 8 TBs with BVR
// pattern 0,0,1,1,0,0,1,1. Window size 2 gives H* = 3/7; window size 4
// gives H* = 1.
func TestFigure3(t *testing.T) {
	pattern := []int{0, 0, 1, 1, 0, 0, 1, 1}
	tbs := make([]TBProfile, len(pattern))
	for i, b := range pattern {
		tbs[i] = tbWithBVR(i+1, b)
	}
	p2 := WindowEntropy(tbs, 2, 1)
	approx(t, p2.PerBit[0], 3.0/7.0, 1e-12, "window=2")
	p4 := WindowEntropy(tbs, 4, 1)
	approx(t, p4.PerBit[0], 1.0, 1e-12, "window=4")
}

func TestInterTBCompensatesIntraTB(t *testing.T) {
	// Section III-A: TBs A (BVR 0) and B (BVR 1) each have zero intra-TB
	// entropy, but co-executing them yields entropy 1.
	tbs := []TBProfile{tbWithBVR(1, 0), tbWithBVR(2, 1)}
	p := WindowEntropy(tbs, 2, 1)
	approx(t, p.PerBit[0], 1.0, 1e-12, "A+B window")
}

func TestProfileTB(t *testing.T) {
	tb := trace.TB{ID: 0, Requests: []trace.Request{
		{Addr: 0b0001}, {Addr: 0b0011}, {Addr: 0b0111}, {Addr: 0b1111},
	}}
	p := ProfileTB(&tb, 4)
	wants := []Ratio{{4, 4}, {3, 4}, {2, 4}, {1, 4}}
	for i, w := range wants {
		if !p.BVR[i].Eq(w) {
			t.Errorf("bit %d BVR = %+v, want %+v", i, p.BVR[i], w)
		}
	}
	if p.Requests != 4 {
		t.Errorf("requests = %d", p.Requests)
	}
}

func TestProfileTBEmpty(t *testing.T) {
	tb := trace.TB{ID: 0}
	p := ProfileTB(&tb, 4)
	for i, r := range p.BVR {
		if r.Total != 0 {
			t.Errorf("bit %d total = %d, want 0", i, r.Total)
		}
	}
}

func TestWindowClamping(t *testing.T) {
	tbs := []TBProfile{tbWithBVR(1, 0), tbWithBVR(2, 1)}
	// Window larger than TB count clamps to n (one window).
	p := WindowEntropy(tbs, 100, 1)
	approx(t, p.PerBit[0], 1.0, 1e-12, "clamped window")
	// Window <= 0 behaves as 1 (all single-TB windows, entropy 0).
	p0 := WindowEntropy(tbs, 0, 1)
	approx(t, p0.PerBit[0], 0.0, 1e-12, "w=0")
	// No TBs at all.
	if got := WindowEntropy(nil, 4, 3); len(got.PerBit) != 3 || got.Requests != 0 {
		t.Errorf("empty WindowEntropy = %+v", got)
	}
}

// Property: entropy is always in [0,1] for arbitrary BVR patterns and
// window sizes.
func TestEntropyBoundedProperty(t *testing.T) {
	f := func(pattern []uint8, wRaw uint8) bool {
		if len(pattern) == 0 {
			return true
		}
		w := int(wRaw)%len(pattern) + 1
		tbs := make([]TBProfile, len(pattern))
		for i, b := range pattern {
			// BVRs drawn from {0, 1/4, 1/2, 3/4, 1}.
			tbs[i] = TBProfile{ID: i, BVR: []Ratio{{Ones: int64(b % 5), Total: 4}}, Requests: 1}
		}
		h := WindowEntropy(tbs, w, 1).PerBit[0]
		return h >= 0 && h <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: a constant bit has zero entropy; a bit alternating every TB
// with window >= 2 has positive entropy.
func TestConstantVsAlternating(t *testing.T) {
	n := 16
	constant := make([]TBProfile, n)
	alternating := make([]TBProfile, n)
	for i := 0; i < n; i++ {
		constant[i] = tbWithBVR(i, 1)
		alternating[i] = tbWithBVR(i, i%2)
	}
	if h := WindowEntropy(constant, 12, 1).PerBit[0]; h != 0 {
		t.Errorf("constant bit entropy = %v, want 0", h)
	}
	if h := WindowEntropy(alternating, 12, 1).PerBit[0]; h <= 0.9 {
		t.Errorf("alternating bit entropy = %v, want ~1", h)
	}
}

func makeApp() *trace.App {
	// Kernel 1: 2 TBs, addresses vary in bit 0 only (within-TB entropy).
	k1 := trace.Kernel{Name: "k1", WarpsPerTB: 1, TBs: []trace.TB{
		{ID: 0, Requests: []trace.Request{{Addr: 0}, {Addr: 1}}},
		{ID: 1, Requests: []trace.Request{{Addr: 0}, {Addr: 1}}},
	}}
	// Kernel 2: 4 TBs, bit 1 alternates across TBs; 4x the requests.
	k2 := trace.Kernel{Name: "k2", WarpsPerTB: 1}
	for i := 0; i < 4; i++ {
		reqs := make([]trace.Request, 4)
		for j := range reqs {
			reqs[j] = trace.Request{Addr: uint64(i%2) << 1}
		}
		k2.TBs = append(k2.TBs, trace.TB{ID: i, Requests: reqs})
	}
	return &trace.App{Name: "toy", Abbr: "TOY", Kernels: []trace.Kernel{k1, k2}, InsnPerAccess: 10}
}

func TestAppProfileWeighting(t *testing.T) {
	app := makeApp()
	p := AppProfile(app, 2, 4, nil)
	if p.Requests != 20 {
		t.Fatalf("requests = %d, want 20", p.Requests)
	}
	// Bit 0: entropy comes only from kernel 1 (intra-TB BVR 1/2 is the
	// same for both TBs => v=1 => window entropy 0!). Actually both TBs
	// have BVR 1/2, so the window sees a single unique value: H=0.
	approx(t, p.PerBit[0], 0, 1e-12, "bit0 same-BVR windows")
	// Bit 1: kernel 2 alternates 0,1,0,1 over 4 TBs, w=2 -> all windows
	// have two unique values => H=1; kernel1 contributes 0 with weight
	// 4/20.
	approx(t, p.PerBit[1], 16.0/20.0, 1e-12, "bit1 weighted")
}

func TestKernelProfileTransform(t *testing.T) {
	app := makeApp()
	// Transform that swaps bits 0 and 1.
	swap := func(a uint64) uint64 {
		return (a &^ 3) | ((a & 1) << 1) | ((a >> 1) & 1)
	}
	p := AppProfile(app, 2, 4, swap)
	approx(t, p.PerBit[1], 0, 1e-12, "swapped bit1")
	approx(t, p.PerBit[0], 16.0/20.0, 1e-12, "swapped bit0")
}

func TestChannelBankValley(t *testing.T) {
	p := Profile{PerBit: []float64{0, 0, 0.9, 0.05, 0.02, 0.9, 0.9, 0.9}}
	// Channel bit 3 and bank bit 4 are low while bits 5+ are high.
	if !p.ChannelBankValley([]int{3}, []int{4}, 0.1, 0.5) {
		t.Error("valley not detected")
	}
	// No valley when channel and bank bits are high.
	if p.ChannelBankValley([]int{2}, []int{5}, 0.1, 0.5) {
		t.Error("false valley on high bits")
	}
	// Low channel/bank bits but no high bits above them: not a valley,
	// just a low-entropy address.
	flat := Profile{PerBit: []float64{0.9, 0.9, 0.02, 0.01, 0.0, 0.0}}
	if flat.ChannelBankValley([]int{2}, []int{3}, 0.1, 0.5) {
		t.Error("false valley with no high-order entropy")
	}
	// NN's shape: live channel bits and one dead bank bit below high
	// entropy. A single dead bank bit is not a valley; a second one is.
	nn := Profile{PerBit: []float64{1, 1, 0.9, 0.9, 0.9, 0.31, 0.9, 0.9}}
	ch, bank := []int{0, 1}, []int{2, 3, 4, 5}
	if nn.ChannelBankValley(ch, bank, 0.35, 0.6) {
		t.Error("one dead bank bit counted as a valley")
	}
	nn.PerBit[4] = 0.2
	if !nn.ChannelBankValley(ch, bank, 0.35, 0.6) {
		t.Error("two dead bank bits not counted as a valley")
	}
}

func TestMeanMin(t *testing.T) {
	p := Profile{PerBit: []float64{0.2, 0.4, 0.6, 0.8}}
	approx(t, p.Mean([]int{0, 1, 2, 3}), 0.5, 1e-12, "mean")
	approx(t, p.Min([]int{1, 3}), 0.4, 1e-12, "min")
	// Empty selections return the documented 0 sentinel, never NaN.
	if got := p.Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v", got)
	}
	if got := p.Min(nil); got != 0 {
		t.Errorf("Min(nil) = %v, want the 0 sentinel", got)
	}
	if got := p.Mean([]int{}); got != 0 {
		t.Errorf("Mean(empty) = %v", got)
	}
	// Out-of-range positions are ignored instead of panicking; a
	// selection with no in-range positions behaves like an empty one.
	if got := p.Mean([]int{-1, 99}); got != 0 {
		t.Errorf("Mean(out of range) = %v", got)
	}
	if got := p.Min([]int{-1, 99}); got != 0 {
		t.Errorf("Min(out of range) = %v", got)
	}
	approx(t, p.Mean([]int{1, 99}), 0.4, 1e-12, "mean skips out-of-range")
	approx(t, p.Min([]int{2, -5}), 0.6, 1e-12, "min skips out-of-range")
	// Empty profiles never index out of bounds.
	var empty Profile
	if empty.Mean([]int{0, 1}) != 0 || empty.Min([]int{0, 1}) != 0 {
		t.Error("empty profile must yield 0 sentinels")
	}
}

// Property: profile is invariant to request order within a TB (the whole
// point of BVR vs bit-flip-rate estimators).
func TestOrderInvarianceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		reqs := make([]trace.Request, 32)
		for i := range reqs {
			reqs[i] = trace.Request{Addr: uint64(r.Intn(1 << 12))}
		}
		tb1 := trace.TB{ID: 0, Requests: append([]trace.Request(nil), reqs...)}
		shuffled := append([]trace.Request(nil), reqs...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		tb2 := trace.TB{ID: 0, Requests: shuffled}
		p1 := ProfileTB(&tb1, 12)
		p2 := ProfileTB(&tb2, 12)
		for b := 0; b < 12; b++ {
			if !p1.BVR[b].Eq(p2.BVR[b]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTraceValidate(t *testing.T) {
	app := makeApp()
	if err := app.Validate(30); err != nil {
		t.Fatalf("valid app rejected: %v", err)
	}
	bad := *app
	bad.Kernels = append([]trace.Kernel(nil), app.Kernels...)
	bad.Kernels[0].TBs = []trace.TB{{ID: 1}, {ID: 1}}
	if err := bad.Validate(30); err == nil {
		t.Error("duplicate TB IDs not caught")
	}
	bad2 := *app
	bad2.Kernels = []trace.Kernel{{Name: "k", WarpsPerTB: 1, TBs: []trace.TB{
		{ID: 0, Requests: []trace.Request{{Addr: 1 << 35}}},
	}}}
	if err := bad2.Validate(30); err == nil {
		t.Error("oversized address not caught")
	}
}

func BenchmarkAppProfile(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	k := trace.Kernel{Name: "bench", WarpsPerTB: 4}
	for i := 0; i < 256; i++ {
		reqs := make([]trace.Request, 64)
		for j := range reqs {
			reqs[j] = trace.Request{Addr: rng.Uint64() & ((1 << 30) - 1)}
		}
		k.TBs = append(k.TBs, trace.TB{ID: i, Requests: reqs})
	}
	app := &trace.App{Name: "bench", Abbr: "BN", Kernels: []trace.Kernel{k}, InsnPerAccess: 10}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AppProfile(app, 12, 30, nil)
	}
}

// TestEntropyTableMatchesShannon: the streaming profiler's table
// kernel equals ShannonNormalized bit for bit over every ordered
// composition of w (every sequence of positive counts summing to w,
// which is every window's distinct-value counts in every
// first-appearance order), for w ≤ 12. Widths run downward, so the
// table is rebuilt in place from a wider one.
func TestEntropyTableMatchesShannon(t *testing.T) {
	var tab entropyTable
	var counts []int
	var probs []float64
	checked := 0
	for w := 12; w >= 1; w-- {
		tab.setWidth(w)
		// Bit k of parts set ends a part after unit k+1.
		for parts := 0; parts < 1<<(w-1); parts++ {
			counts, probs = counts[:0], probs[:0]
			run := 1
			for k := 0; k < w-1; k++ {
				if parts>>k&1 != 0 {
					counts = append(counts, run)
					run = 0
				}
				run++
			}
			counts = append(counts, run)
			for _, c := range counts {
				probs = append(probs, float64(c)/float64(w))
			}
			got, want := tab.eval(counts), ShannonNormalized(probs)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("w=%d counts %v: table %.17g != ShannonNormalized %.17g", w, counts, got, want)
			}
			checked++
		}
	}
	if checked != 1<<12-1 {
		t.Fatalf("checked %d compositions, want %d", checked, 1<<12-1)
	}
}
