package workload

import (
	"testing"

	"valleymap/internal/entropy"
	"valleymap/internal/layout"
	"valleymap/internal/trace"
)

func TestCatalogComplete(t *testing.T) {
	cat := Catalog()
	if len(cat) != 16 {
		t.Fatalf("catalog has %d benchmarks, want 16", len(cat))
	}
	wantOrder := []string{"MT", "LU", "GS", "NW", "LPS", "SC", "SRAD2", "DWT2D", "HS", "SP",
		"FWT", "NN", "SPMV", "LM", "MUM", "BFS"}
	for i, s := range cat {
		if s.Abbr != wantOrder[i] {
			t.Errorf("catalog[%d] = %s, want %s", i, s.Abbr, wantOrder[i])
		}
	}
	if len(StandaloneKernels()) != 2 {
		t.Fatalf("standalone kernels = %d, want 2", len(StandaloneKernels()))
	}
	if len(All()) != 18 {
		t.Fatalf("All() = %d, want 18 (Figure 5)", len(All()))
	}
	if len(ValleySet()) != 10 {
		t.Errorf("valley set = %d, want 10", len(ValleySet()))
	}
	if len(NonValleySet()) != 6 {
		t.Errorf("non-valley set = %d, want 6", len(NonValleySet()))
	}
}

func TestByAbbr(t *testing.T) {
	if s, ok := ByAbbr("MT"); !ok || s.Name != "Transpose" {
		t.Errorf("ByAbbr(MT) = %+v, %v", s, ok)
	}
	if s, ok := ByAbbr("DWT2DK1"); !ok || !s.Valley {
		t.Errorf("ByAbbr(DWT2DK1) = %+v, %v", s, ok)
	}
	if _, ok := ByAbbr("NOPE"); ok {
		t.Error("unknown abbr should fail")
	}
}

func TestAllTracesValid(t *testing.T) {
	for _, spec := range All() {
		for _, sc := range []Scale{Tiny, Small, Full} {
			app := spec.Build(sc)
			if err := app.Validate(30); err != nil {
				t.Errorf("%s@%v: %v", spec.Abbr, sc, err)
			}
			if app.Abbr != spec.Abbr {
				t.Errorf("abbr mismatch: %s vs %s", app.Abbr, spec.Abbr)
			}
			if app.Requests() == 0 {
				t.Errorf("%s@%v: empty trace", spec.Abbr, sc)
			}
			if app.InsnPerAccess <= 1 {
				t.Errorf("%s: InsnPerAccess = %v", spec.Abbr, app.InsnPerAccess)
			}
		}
	}
}

func TestScaleMonotone(t *testing.T) {
	for _, spec := range Catalog() {
		tiny := spec.Build(Tiny).Requests()
		small := spec.Build(Small).Requests()
		full := spec.Build(Full).Requests()
		if !(tiny <= small && small <= full) {
			t.Errorf("%s: requests not monotone across scales: %d, %d, %d", spec.Abbr, tiny, small, full)
		}
	}
}

func TestParseScale(t *testing.T) {
	for name, want := range map[string]Scale{"tiny": Tiny, " Small ": Small, "": Small, "FULL": Full} {
		if got, err := ParseScale(name); err != nil || got != want {
			t.Errorf("ParseScale(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, sc := range []Scale{Tiny, Small, Full} {
		if got, err := ParseScale(sc.String()); err != nil || got != sc {
			t.Errorf("ParseScale(%q) = %v, %v; want a round trip", sc, got, err)
		}
	}
	_, err := ParseScale("huge")
	if want := `unknown scale "huge" (want tiny, small or full)`; err == nil || err.Error() != want {
		t.Errorf("ParseScale(huge) error = %v, want %s", err, want)
	}
}

func TestTracesDeterministic(t *testing.T) {
	for _, abbr := range []string{"MT", "SPMV", "MUM", "BFS"} {
		spec, _ := ByAbbr(abbr)
		a := spec.Build(Tiny)
		b := spec.Build(Tiny)
		if a.Requests() != b.Requests() {
			t.Fatalf("%s: nondeterministic request count", abbr)
		}
		for ki := range a.Kernels {
			for ti := range a.Kernels[ki].TBs {
				ra, rb := a.Kernels[ki].TBs[ti].Requests, b.Kernels[ki].TBs[ti].Requests
				for i := range ra {
					if ra[i] != rb[i] {
						t.Fatalf("%s: request %d of kernel %d TB %d differs", abbr, i, ki, ti)
					}
				}
			}
		}
	}
}

func TestEnoughTBsForWindow(t *testing.T) {
	// Every kernel must have at least window-size TBs so Equation 2 has
	// at least one full window at w = 12 SMs.
	for _, spec := range All() {
		app := spec.Build(Tiny)
		for _, k := range app.Kernels {
			if len(k.TBs) < 12 {
				t.Errorf("%s kernel %s has %d TBs (< 12)", spec.Abbr, k.Name, len(k.TBs))
			}
		}
	}
}

// profile computes the entropy distribution of a workload the way the
// paper does: on coalesced 128 B transactions with window = 12 SMs.
func profile(app *trace.App) entropy.Profile {
	return entropy.AppProfile(trace.CoalesceApp(app, 128), 12, 30, nil)
}

// TestValleyClassification is the central fidelity check for Figure 5:
// with the Hynix layout and window 12, the paper's valley benchmarks must
// show an entropy valley over the channel/bank bits, and the non-valley
// benchmarks must not have dead channel bits.
func TestValleyClassification(t *testing.T) {
	l := layout.HynixGDDR5()
	chBank := layout.Bits0(l.MaskOf(layout.Channel, layout.Bank))
	for _, spec := range Catalog() {
		app := spec.Build(Small)
		prof := profile(app)
		minCB := prof.Min(chBank)
		meanCB := prof.Mean(chBank)
		chBits := l.FieldBits(layout.Channel)
		bankBits := l.FieldBits(layout.Bank)
		got := prof.ChannelBankValley(chBits, bankBits, 0.35, 0.6)
		if got != spec.Valley {
			t.Errorf("%s: valley classification = %v, want %v (min=%.2f mean=%.2f profile=%.2v)",
				spec.Abbr, got, spec.Valley, minCB, meanCB, prof.PerBit[6:20])
		}
		if !spec.Valley {
			// Non-valley: channel bits must also carry real entropy.
			if prof.Mean(chBits) < 0.5 {
				t.Errorf("%s (non-valley) has weak channel-bit entropy %.2f", spec.Abbr, prof.Mean(chBits))
			}
		}
	}
}

// TestHighOrderEntropyExists verifies the other half of the paper's claim:
// valley benchmarks do have high-entropy bits elsewhere in the address
// (that is what PAE/FAE harvest).
func TestHighOrderEntropyExists(t *testing.T) {
	for _, spec := range ValleySet() {
		prof := profile(spec.Build(Small))
		max := 0.0
		for b := 6; b < 30; b++ {
			if prof.PerBit[b] > max {
				max = prof.PerBit[b]
			}
		}
		if max < 0.7 {
			t.Errorf("%s: no high-entropy bits anywhere (max=%.2f); nothing to harvest", spec.Abbr, max)
		}
	}
}

// TestKernelVsAppProfiles reproduces the DWT2D observation (Figures 5i/5j):
// the standalone kernel has a narrower valley than the whole application.
func TestKernelVsAppProfiles(t *testing.T) {
	appSpec, _ := ByAbbr("DWT2D")
	kSpec, _ := ByAbbr("DWT2DK1")
	app := profile(appSpec.Build(Small))
	k1 := profile(kSpec.Build(Small))
	countLow := func(p entropy.Profile) int {
		n := 0
		for b := 6; b < 18; b++ {
			if p.PerBit[b] < 0.35 {
				n++
			}
		}
		return n
	}
	if countLow(k1) == 0 {
		t.Error("DWT2DK1 should have a (narrow) valley")
	}
	if countLow(app) < countLow(k1) {
		t.Errorf("DWT2D app valley (%d low bits) should be at least as broad as kernel 1's (%d)",
			countLow(app), countLow(k1))
	}
}

func TestWriteMix(t *testing.T) {
	// Every benchmark needs some writes for the write-power component,
	// except pure-read pointer chasers.
	for _, spec := range Catalog() {
		if spec.Abbr == "MUM" {
			continue
		}
		app := spec.Build(Tiny)
		writes := 0
		for _, k := range app.Kernels {
			for _, tb := range k.TBs {
				for _, r := range tb.Requests {
					if r.Kind == trace.Write {
						writes++
					}
				}
			}
		}
		if writes == 0 {
			t.Errorf("%s has no writes", spec.Abbr)
		}
	}
}

func TestPaperMetadata(t *testing.T) {
	for _, s := range Catalog() {
		if s.PaperAPKI <= 0 || s.PaperMPKI < 0 || s.PaperKernels <= 0 {
			t.Errorf("%s missing Table II metadata: %+v", s.Abbr, s)
		}
		if s.PaperMPKI > s.PaperAPKI {
			t.Errorf("%s: MPKI %v > APKI %v", s.Abbr, s.PaperMPKI, s.PaperAPKI)
		}
	}
}

func TestRequestBudget(t *testing.T) {
	// Keep simulation tractable: full-scale traces stay under 300k
	// requests, tiny under 40k.
	for _, spec := range All() {
		if n := spec.Build(Full).Requests(); n > 300000 {
			t.Errorf("%s@full: %d requests (too many)", spec.Abbr, n)
		}
		if n := spec.Build(Tiny).Requests(); n > 40000 {
			t.Errorf("%s@tiny: %d requests (too many)", spec.Abbr, n)
		}
	}
}
