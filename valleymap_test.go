package valleymap_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"valleymap"
	"valleymap/internal/experiments"
)

func TestFacadeEndToEnd(t *testing.T) {
	spec, ok := valleymap.WorkloadByAbbr("MT")
	if !ok {
		t.Fatal("MT missing")
	}
	app := spec.Build(valleymap.ScaleTiny)
	prof := valleymap.AnalyzeApp(app, valleymap.AnalysisOptions{})
	l := valleymap.HynixGDDR5()
	if !prof.ChannelBankValley(l.FieldBits(valleymap.FieldChannel), l.FieldBits(valleymap.FieldBank), 0.35, 0.6) {
		t.Error("MT should show its valley through the facade")
	}
	base := valleymap.Simulate(app, valleymap.NewMapper(valleymap.BASE, valleymap.HynixGDDR5(), 1), valleymap.BaselineConfig())
	pae := valleymap.Simulate(app, valleymap.NewMapper(valleymap.PAE, valleymap.HynixGDDR5(), 1), valleymap.BaselineConfig())
	if float64(base.ExecTime)/float64(pae.ExecTime) < 1.5 {
		t.Errorf("facade PAE speedup = %.2f", float64(base.ExecTime)/float64(pae.ExecTime))
	}
}

func TestFacadePostMappingProfile(t *testing.T) {
	spec, _ := valleymap.WorkloadByAbbr("MT")
	app := spec.Build(valleymap.ScaleTiny)
	m := valleymap.NewMapper(valleymap.PAE, valleymap.HynixGDDR5(), 1)
	prof := valleymap.AnalyzeApp(app, valleymap.AnalysisOptions{Transform: m.Map})
	if prof.Min([]int{8, 9, 10, 11, 12, 13}) < 0.6 {
		t.Errorf("PAE-mapped profile still has a valley: %.2f",
			prof.Min([]int{8, 9, 10, 11, 12, 13}))
	}
}

// TestAnalyzeSourceTransformMatchesAnalyzeApp: the streaming analyzer
// hands a per-address Transform to the profiler as a batch transform,
// and the profile stays bit-identical to the materialized reference.
func TestAnalyzeSourceTransformMatchesAnalyzeApp(t *testing.T) {
	spec, _ := valleymap.WorkloadByAbbr("MT")
	m := valleymap.NewMapper(valleymap.PAE, valleymap.HynixGDDR5(), 1)
	want := valleymap.AnalyzeApp(spec.Build(valleymap.ScaleTiny), valleymap.AnalysisOptions{Transform: m.Map})
	got, err := valleymap.AnalyzeSource(spec.Source(valleymap.ScaleTiny),
		valleymap.AnalysisOptions{Transform: m.Map})
	if err != nil {
		t.Fatal(err)
	}
	if got.Requests != want.Requests || len(got.PerBit) != len(want.PerBit) {
		t.Fatalf("%d requests over %d bits, want %d over %d",
			got.Requests, len(got.PerBit), want.Requests, len(want.PerBit))
	}
	for b := range want.PerBit {
		if got.PerBit[b] != want.PerBit[b] {
			t.Fatalf("bit %d: streamed %.17g != materialized %.17g",
				b, got.PerBit[b], want.PerBit[b])
		}
	}
}

func TestFacadeWorkloadSets(t *testing.T) {
	if len(valleymap.Workloads()) != 16 ||
		len(valleymap.AllWorkloads()) != 18 ||
		len(valleymap.ValleyWorkloads()) != 10 ||
		len(valleymap.NonValleyWorkloads()) != 6 {
		t.Error("workload set sizes wrong")
	}
}

// TestFacadeRenderers renders Figures 3 and 5 from the facade's
// ExperimentOptions and scale constants, the way cmd/experiments does.
func TestFacadeRenderers(t *testing.T) {
	var b bytes.Buffer
	opt := valleymap.ExperimentOptions{Scale: valleymap.ScaleTiny}
	for _, name := range []string{"fig3", "fig5"} {
		out, err := experiments.Run(name, opt)
		if err != nil {
			t.Fatal(err)
		}
		out.Render(&b)
	}
	if !strings.Contains(b.String(), "Figure 5") {
		t.Error("renderers broken through facade")
	}
}

func TestFacadeBIM(t *testing.T) {
	m := valleymap.IdentityBIM(30)
	if !m.IsIdentity() {
		t.Error("identity BIM")
	}
	mp := valleymap.NewRMPMapper(valleymap.HynixGDDR5(), nil)
	if mp.Scheme() != valleymap.RMP {
		t.Error("RMP mapper scheme")
	}
}

// Example of the package's quickstart flow; also guards the doc.go code.
func ExampleAnalyzeApp() {
	spec, _ := valleymap.WorkloadByAbbr("MT")
	app := spec.Build(valleymap.ScaleTiny)
	prof := valleymap.AnalyzeApp(app, valleymap.AnalysisOptions{})
	l := valleymap.HynixGDDR5()
	valley := prof.ChannelBankValley(l.FieldBits(valleymap.FieldChannel), l.FieldBits(valleymap.FieldBank), 0.35, 0.6)
	fmt.Println("MT has an entropy valley over the channel/bank bits:", valley)
	// Output: MT has an entropy valley over the channel/bank bits: true
}

// TestPaperHeadlines asserts the paper's qualitative result set through
// the public API at tiny scale: scheme ordering, power trade-off, valley
// removal and non-valley neutrality.
func TestPaperHeadlines(t *testing.T) {
	opt := valleymap.ExperimentOptions{Scale: valleymap.ScaleTiny}
	suite := valleymap.ValleySuite(opt)

	speedup := func(s valleymap.Scheme) float64 {
		var sum float64
		series := suite.SpeedupSeries(s)
		for _, v := range series {
			sum += v
		}
		return sum / float64(len(series))
	}
	pm, rmp, pae, fae := speedup(valleymap.PM), speedup(valleymap.RMP), speedup(valleymap.PAE), speedup(valleymap.FAE)
	if !(pae > pm && pae > rmp && pae > 1.3) {
		t.Errorf("scheme ordering broken: PM %.2f RMP %.2f PAE %.2f", pm, rmp, pae)
	}
	if fae < pae*0.95 {
		t.Errorf("FAE (%.2f) should be at least on par with PAE (%.2f)", fae, pae)
	}
	if p, f := suite.NormalizedDRAMPower(valleymap.PAE), suite.NormalizedDRAMPower(valleymap.FAE); f <= p {
		t.Errorf("FAE DRAM power (%.2f) must exceed PAE's (%.2f)", f, p)
	}

	nv := valleymap.NonValleySuite(opt)
	if h := nv.HMeanSpeedup(valleymap.PAE); h < 0.9 || h > 1.25 {
		t.Errorf("non-valley PAE hmean %.2f not ~1.0", h)
	}
}
