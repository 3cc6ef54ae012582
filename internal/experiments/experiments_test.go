package experiments

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"valleymap/internal/mapping"
	"valleymap/internal/workload"
)

func tinyOpt() Options { return Options{Scale: workload.Tiny} }

func TestFigure3MatchesPaper(t *testing.T) {
	w2, w4 := Figure3()
	if math.Abs(w2-3.0/7.0) > 1e-12 {
		t.Errorf("w=2: %v, want 3/7", w2)
	}
	if math.Abs(w4-1.0) > 1e-12 {
		t.Errorf("w=4: %v, want 1", w4)
	}
}

func TestFigure5CoversAllWorkloads(t *testing.T) {
	profs := Figure5(tinyOpt())
	if len(profs) != 18 {
		t.Fatalf("profiles = %d, want 18", len(profs))
	}
	for abbr, p := range profs {
		if len(p.PerBit) != 30 {
			t.Errorf("%s: %d bits", abbr, len(p.PerBit))
		}
		for b, h := range p.PerBit {
			if h < 0 || h > 1+1e-9 {
				t.Errorf("%s bit %d entropy %v out of range", abbr, b, h)
			}
		}
	}
}

func TestFigure10ValleyRemoval(t *testing.T) {
	profs := Figure10(tinyOpt())
	chBank := []int{8, 9, 10, 11, 12, 13}
	base := profs[mapping.BASE].Min(chBank)
	pae := profs[mapping.PAE].Min(chBank)
	fae := profs[mapping.FAE].Min(chBank)
	if base > 0.3 {
		t.Errorf("BASE min ch/bank entropy = %.2f, expected a valley", base)
	}
	if pae < 0.6 {
		t.Errorf("PAE min ch/bank entropy = %.2f, valley not removed", pae)
	}
	if fae < 0.6 {
		t.Errorf("FAE min ch/bank entropy = %.2f, valley not removed", fae)
	}
	// PM narrows but does not remove the valley robustly; it must not
	// exceed PAE.
	if pm := profs[mapping.PM].Min(chBank); pm > pae {
		t.Errorf("PM min entropy %.2f > PAE %.2f", pm, pae)
	}
}

func TestValleySuiteOrdering(t *testing.T) {
	// The core result at tiny scale: PAE/FAE/ALL >> PM/RMP >= BASE on
	// valley benchmarks; FAE burns more DRAM power than PAE. The full
	// valley set is used because the PAE-vs-FAE perf/W margin is a
	// suite-level effect (paper: 1.39x vs 1.36x).
	suite := RunSuite(workload.ValleySet(), mapping.Schemes(), baselineCfg(), tinyOpt())
	paeMean := ArithMean(suite.SpeedupSeries(mapping.PAE))
	faeMean := ArithMean(suite.SpeedupSeries(mapping.FAE))
	baseMean := ArithMean(suite.SpeedupSeries(mapping.BASE))
	if baseMean != 1.0 {
		t.Errorf("BASE mean speedup = %v, want exactly 1", baseMean)
	}
	if paeMean < 1.3 {
		t.Errorf("PAE mean speedup = %.2f, want > 1.3 on valley subset", paeMean)
	}
	if faeMean < 1.3 {
		t.Errorf("FAE mean speedup = %.2f", faeMean)
	}
	// Power ordering (Figure 11): FAE and ALL cost more DRAM power than
	// PAE.
	paePow := suite.NormalizedDRAMPower(mapping.PAE)
	faePow := suite.NormalizedDRAMPower(mapping.FAE)
	allPow := suite.NormalizedDRAMPower(mapping.ALL)
	if faePow < paePow {
		t.Errorf("FAE power %.2f < PAE power %.2f", faePow, paePow)
	}
	if allPow < paePow {
		t.Errorf("ALL power %.2f < PAE power %.2f", allPow, paePow)
	}
	// Perf/W (Figure 17): PAE at least matches FAE.
	paePPW := HarmonicMean(suite.NormalizedPerfPerWatt(mapping.PAE))
	faePPW := HarmonicMean(suite.NormalizedPerfPerWatt(mapping.FAE))
	if paePPW < faePPW-0.05 {
		t.Errorf("perf/W: PAE %.2f well below FAE %.2f", paePPW, faePPW)
	}
}

func TestNonValleySuiteFlat(t *testing.T) {
	suite := RunSuite(workload.NonValleySet()[:3], []mapping.Scheme{mapping.BASE, mapping.PAE},
		baselineCfg(), tinyOpt())
	for _, wl := range suite.Workloads {
		sp := suite.Speedup(wl, mapping.PAE)
		if sp < 0.85 || sp > 1.35 {
			t.Errorf("%s: PAE speedup %.2f not ~flat", wl, sp)
		}
	}
}

func TestTable2Shape(t *testing.T) {
	rows := Table2(tinyOpt())
	if len(rows) != 16 {
		t.Fatalf("rows = %d", len(rows))
	}
	byAbbr := map[string]Table2Row{}
	for _, r := range rows {
		byAbbr[r.Abbr] = r
		if r.APKI <= 0 || r.Instructions <= 0 {
			t.Errorf("%s: empty measurements %+v", r.Abbr, r)
		}
		if r.MPKI > r.APKI+1e-9 {
			t.Errorf("%s: MPKI %v > APKI %v", r.Abbr, r.MPKI, r.APKI)
		}
	}
	// Qualitative Table II relations: GS and LM are LLC-resident (low
	// miss ratio); MUM/BFS are miss-heavy.
	if g := byAbbr["GS"]; g.MPKI/g.APKI > 0.3 {
		t.Errorf("GS miss ratio %.2f too high", g.MPKI/g.APKI)
	}
	if m := byAbbr["MUM"]; m.MPKI/m.APKI < 0.5 {
		t.Errorf("MUM miss ratio %.2f too low", m.MPKI/m.APKI)
	}
}

func TestMeans(t *testing.T) {
	if h := HarmonicMean([]float64{1, 1, 1}); h != 1 {
		t.Errorf("hmean = %v", h)
	}
	if h := HarmonicMean([]float64{2, 2}); h != 2 {
		t.Errorf("hmean = %v", h)
	}
	// HMEAN <= AMEAN.
	xs := []float64{1, 2, 4}
	if HarmonicMean(xs) >= ArithMean(xs) {
		t.Error("hmean should be below amean")
	}
	if HarmonicMean(nil) != 0 || ArithMean(nil) != 0 {
		t.Error("empty means")
	}
	if HarmonicMean([]float64{1, 0}) != 0 {
		t.Error("non-positive value should yield 0")
	}
}

// TestRenderersProduceOutput checks every table entry's output at tiny
// scale: its text must be free of NaN and bad format verbs and carry
// its figures' headings, and its JSON data must marshal.
func TestRenderersProduceOutput(t *testing.T) {
	headings := map[string][]string{
		"fig3":   {"Figure 3"},
		"fig5":   {"Figure 5", "<- entropy valley"},
		"fig10":  {"Figure 10"},
		"table2": {"Table II"},
		"suite": {"Figure 11", "Figure 12", "Figure 13a", "Figure 13b",
			"Figure 14a", "Figure 14b", "Figure 14c", "Figure 15",
			"Figure 16", "Figure 17", "HMEAN"},
		"fig18": {"Figure 18"},
		"fig19": {"Figure 19"},
		"fig20": {"Figure 20", "HMEAN"},
	}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			out := tinyOutputs()[name]
			var b bytes.Buffer
			out.Render(&b)
			text := b.String()
			if text == "" || strings.Contains(text, "NaN") || strings.Contains(text, "%!") {
				t.Errorf("text is empty or has NaN or bad verbs:\n%s", text)
			}
			for _, want := range headings[name] {
				if !strings.Contains(text, want) {
					t.Errorf("text missing %q", want)
				}
			}
			if _, err := json.Marshal(out.Data); err != nil {
				t.Errorf("JSON data does not marshal: %v", err)
			}
		})
		delete(headings, name)
	}
	for name := range headings {
		t.Errorf("headings listed for %q, which is not an experiment", name)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Seed != 1 {
		t.Errorf("defaults = %+v", o)
	}
}

// baselineCfg is a test helper (kept at file end to avoid import cycles
// in editors; it simply forwards to gpusim).
