// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each benchmark runs the corresponding experiment end to end
// and attaches the headline numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the paper's result set (at reduced trace scale; see
// cmd/experiments -format json for measured-vs-paper values at full scale).
package valleymap_test

import (
	"math"
	"testing"

	"valleymap"
)

func tinyOpt() valleymap.ExperimentOptions {
	return valleymap.ExperimentOptions{Scale: valleymap.ScaleTiny}
}

// BenchmarkFigure02ToyBIM reproduces the Figure 2 worked example: the
// 6-bit BIM that rebalances TB-CM0's requests across all four channels.
func BenchmarkFigure02ToyBIM(b *testing.B) {
	rows := []uint64{
		1<<5 | 1<<4 | 1<<3 | 1<<0,
		1<<5 | 1<<3 | 1<<1,
		1 << 2, 1 << 3, 1 << 4, 1 << 5,
	}
	m := valleymap.NewBIM(6, rows)
	var spread int
	for i := 0; i < b.N; i++ {
		var chans [4]int
		for k := uint64(0); k < 8; k++ {
			chans[m.Apply(k<<3)&3]++
		}
		spread = 0
		for _, c := range chans {
			if c > 0 {
				spread++
			}
		}
	}
	b.ReportMetric(float64(spread), "channels-used")
}

// BenchmarkFigure03WindowEntropy reproduces the window-entropy example
// (H* = 3/7 at w=2, 1.0 at w=4).
func BenchmarkFigure03WindowEntropy(b *testing.B) {
	var w2, w4 float64
	for i := 0; i < b.N; i++ {
		w2, w4 = valleymap.Figure3()
	}
	b.ReportMetric(w2, "Hstar-w2")
	b.ReportMetric(w4, "Hstar-w4")
}

// BenchmarkFigure04LayoutDecode exercises the Hynix address map decode.
func BenchmarkFigure04LayoutDecode(b *testing.B) {
	l := valleymap.HynixGDDR5()
	var sink int
	for i := 0; i < b.N; i++ {
		a := uint64(i*2654435761) & ((1 << 30) - 1)
		sink += l.ChannelOf(a) + l.BankOf(a) + l.RowOf(a) + l.ColumnOf(a)
	}
	_ = sink
}

// BenchmarkFigure05EntropyProfiles computes the 18 entropy distributions.
func BenchmarkFigure05EntropyProfiles(b *testing.B) {
	b.ReportAllocs()
	var valleys int
	for i := 0; i < b.N; i++ {
		profs := valleymap.Figure5(tinyOpt())
		valleys = 0
		for _, p := range profs {
			if p.ChannelBankValley([]int{8, 9}, []int{10, 11, 12, 13}, 0.35, 0.6) {
				valleys++
			}
		}
	}
	b.ReportMetric(float64(valleys), "valley-workloads")
}

// BenchmarkFigure06BIMApply measures the BIM matrix-vector product at the
// heart of every mapping scheme.
func BenchmarkFigure06BIMApply(b *testing.B) {
	m := valleymap.NewMapper(valleymap.PAE, valleymap.HynixGDDR5(), 1)
	b.ReportAllocs()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= m.Map(uint64(i) & ((1 << 30) - 1))
	}
	_ = sink
}

// BenchmarkFigure07GateCost evaluates the XOR-tree hardware cost of every
// scheme (Figure 7's single-cycle claim).
func BenchmarkFigure07GateCost(b *testing.B) {
	l := valleymap.HynixGDDR5()
	var maxDepth int
	for i := 0; i < b.N; i++ {
		maxDepth = 0
		for _, s := range valleymap.Schemes() {
			_, d := valleymap.NewMapper(s, l, 1).GateCost()
			if d > maxDepth {
				maxDepth = d
			}
		}
	}
	b.ReportMetric(float64(maxDepth), "max-xor-depth")
}

// BenchmarkFigure08PMConstruction builds the permutation-based mapping.
func BenchmarkFigure08PMConstruction(b *testing.B) {
	l := valleymap.HynixGDDR5()
	for i := 0; i < b.N; i++ {
		_ = valleymap.NewMapper(valleymap.PM, l, 1)
	}
}

// BenchmarkFigure09BroadConstruction generates the Broad-strategy BIMs
// (PAE/FAE/ALL) including invertibility rejection sampling.
func BenchmarkFigure09BroadConstruction(b *testing.B) {
	l := valleymap.HynixGDDR5()
	for i := 0; i < b.N; i++ {
		_ = valleymap.NewMapper(valleymap.PAE, l, int64(i+1))
		_ = valleymap.NewMapper(valleymap.FAE, l, int64(i+1))
		_ = valleymap.NewMapper(valleymap.ALL, l, int64(i+1))
	}
}

// BenchmarkFigure10MTRemapping computes MT's post-mapping entropy for all
// six schemes and reports how well PAE fills the valley.
func BenchmarkFigure10MTRemapping(b *testing.B) {
	b.ReportAllocs()
	var paeMin float64
	for i := 0; i < b.N; i++ {
		profs := valleymap.Figure10(tinyOpt())
		paeMin = profs[valleymap.PAE].Min([]int{8, 9, 10, 11, 12, 13})
	}
	b.ReportMetric(paeMin, "PAE-min-chbank-entropy")
}

// BenchmarkTable1Configs constructs every simulated system of Table I.
func BenchmarkTable1Configs(b *testing.B) {
	var sms int
	for i := 0; i < b.N; i++ {
		sms = 0
		for _, cfg := range []valleymap.SimConfig{
			valleymap.BaselineConfig(),
			valleymap.ConventionalConfig(24),
			valleymap.ConventionalConfig(48),
			valleymap.Stacked3DConfig(),
		} {
			sms += cfg.SMs
		}
	}
	b.ReportMetric(float64(sms), "total-SMs")
}

// BenchmarkTable2Characteristics measures APKI/MPKI for all 16 benchmarks
// under BASE.
func BenchmarkTable2Characteristics(b *testing.B) {
	b.ReportAllocs()
	var rows int
	for i := 0; i < b.N; i++ {
		rows = len(valleymap.Table2(tinyOpt()))
	}
	b.ReportMetric(float64(rows), "benchmarks")
}

// valleySuite runs the ten valley benchmarks under all six schemes once
// per iteration and returns the last suite for metric extraction.
func valleySuite(b *testing.B) valleymap.SuiteResult {
	b.Helper()
	b.ReportAllocs()
	var suite valleymap.SuiteResult
	for i := 0; i < b.N; i++ {
		suite = valleymap.ValleySuite(tinyOpt())
	}
	return suite
}

// BenchmarkFigure11PerfVsPower reports mean normalized execution time and
// DRAM power per scheme.
func BenchmarkFigure11PerfVsPower(b *testing.B) {
	suite := valleySuite(b)
	b.ReportMetric(suite.NormalizedExecTime(valleymap.PAE), "PAE-norm-time")
	b.ReportMetric(suite.NormalizedDRAMPower(valleymap.PAE), "PAE-norm-power")
	b.ReportMetric(suite.NormalizedDRAMPower(valleymap.FAE), "FAE-norm-power")
}

// BenchmarkFigure12Speedup reports mean speedups over BASE.
func BenchmarkFigure12Speedup(b *testing.B) {
	suite := valleySuite(b)
	for _, s := range []valleymap.Scheme{valleymap.PM, valleymap.PAE, valleymap.FAE, valleymap.ALL} {
		var sum float64
		series := suite.SpeedupSeries(s)
		for _, v := range series {
			sum += v
		}
		b.ReportMetric(sum/float64(len(series)), string(s)+"-mean-speedup")
	}
}

// BenchmarkFigure13NoCAndLLC reports NoC latency and LLC miss-rate
// deltas between BASE and PAE.
func BenchmarkFigure13NoCAndLLC(b *testing.B) {
	suite := valleySuite(b)
	var baseLat, paeLat, baseMiss, paeMiss float64
	n := float64(len(suite.Workloads))
	for _, wl := range suite.Workloads {
		baseLat += suite.Results[wl][valleymap.BASE].NoCAvgLatencyCycles / n
		paeLat += suite.Results[wl][valleymap.PAE].NoCAvgLatencyCycles / n
		baseMiss += suite.Results[wl][valleymap.BASE].LLC.MissRate() / n
		paeMiss += suite.Results[wl][valleymap.PAE].LLC.MissRate() / n
	}
	b.ReportMetric(baseLat, "BASE-noc-cycles")
	b.ReportMetric(paeLat, "PAE-noc-cycles")
	b.ReportMetric(baseMiss, "BASE-llc-missrate")
	b.ReportMetric(paeMiss, "PAE-llc-missrate")
}

// BenchmarkFigure14Parallelism reports LLC/channel/bank-level parallelism
// under BASE vs PAE.
func BenchmarkFigure14Parallelism(b *testing.B) {
	suite := valleySuite(b)
	var metrics [6]float64
	n := float64(len(suite.Workloads))
	for _, wl := range suite.Workloads {
		base := suite.Results[wl][valleymap.BASE]
		pae := suite.Results[wl][valleymap.PAE]
		metrics[0] += base.LLCParallelism / n
		metrics[1] += pae.LLCParallelism / n
		metrics[2] += base.ChannelParallelism / n
		metrics[3] += pae.ChannelParallelism / n
		metrics[4] += base.BankParallelism / n
		metrics[5] += pae.BankParallelism / n
	}
	names := []string{"BASE-llc", "PAE-llc", "BASE-chan", "PAE-chan", "BASE-bank", "PAE-bank"}
	for i, name := range names {
		b.ReportMetric(metrics[i], name+"-par")
	}
}

// BenchmarkFigure15RowBufferHitRate reports mean row-buffer hit rates.
func BenchmarkFigure15RowBufferHitRate(b *testing.B) {
	suite := valleySuite(b)
	n := float64(len(suite.Workloads))
	for _, s := range []valleymap.Scheme{valleymap.BASE, valleymap.PAE, valleymap.FAE} {
		var hr float64
		for _, wl := range suite.Workloads {
			hr += suite.Results[wl][s].DRAM.RowBufferHitRate() / n
		}
		b.ReportMetric(hr, string(s)+"-rowbuf-hit")
	}
}

// BenchmarkFigure16PowerBreakdown reports the activate component that
// separates PAE from FAE/ALL.
func BenchmarkFigure16PowerBreakdown(b *testing.B) {
	suite := valleySuite(b)
	n := float64(len(suite.Workloads))
	for _, s := range []valleymap.Scheme{valleymap.BASE, valleymap.PAE, valleymap.FAE, valleymap.ALL} {
		var act, total float64
		for _, wl := range suite.Workloads {
			p := suite.Results[wl][s].DRAMPower
			act += p.Activate / n
			total += p.Total() / n
		}
		b.ReportMetric(act, string(s)+"-activate-W")
		b.ReportMetric(total, string(s)+"-total-W")
	}
}

// BenchmarkFigure17PerfPerWatt reports normalized performance per watt.
func BenchmarkFigure17PerfPerWatt(b *testing.B) {
	suite := valleySuite(b)
	for _, s := range []valleymap.Scheme{valleymap.PM, valleymap.PAE, valleymap.FAE, valleymap.ALL} {
		series := suite.NormalizedPerfPerWatt(s)
		h := 0.0
		for _, v := range series {
			h += 1 / v
		}
		b.ReportMetric(float64(len(series))/h, string(s)+"-ppw")
	}
}

// BenchmarkFigure18Sensitivity runs the SM-count + 3D-stacked study.
func BenchmarkFigure18Sensitivity(b *testing.B) {
	b.ReportAllocs()
	var pts []struct {
		name string
		pae  float64
	}
	for i := 0; i < b.N; i++ {
		pts = pts[:0]
		for _, pt := range valleymap.Figure18(tinyOpt()) {
			pts = append(pts, struct {
				name string
				pae  float64
			}{pt.Config, pt.Speedups[valleymap.PAE]})
		}
	}
	for _, pt := range pts {
		b.ReportMetric(pt.pae, "PAE-"+pt.name)
	}
}

// BenchmarkFigure19BIMSensitivity runs three random BIMs per scheme.
func BenchmarkFigure19BIMSensitivity(b *testing.B) {
	b.ReportAllocs()
	var res map[valleymap.Scheme][3]float64
	for i := 0; i < b.N; i++ {
		res = valleymap.Figure19(tinyOpt())
	}
	for _, s := range []valleymap.Scheme{valleymap.PAE, valleymap.FAE, valleymap.ALL} {
		trio := res[s]
		spread := math.Abs(trio[0]-trio[1]) + math.Abs(trio[1]-trio[2])
		b.ReportMetric(trio[0], string(s)+"-BIM1-speedup")
		b.ReportMetric(spread, string(s)+"-seed-spread")
	}
}

// BenchmarkFigure20NonValley reports the non-valley benchmark speedups
// (expected ≈ 1.0).
func BenchmarkFigure20NonValley(b *testing.B) {
	b.ReportAllocs()
	var suite valleymap.SuiteResult
	for i := 0; i < b.N; i++ {
		suite = valleymap.NonValleySuite(tinyOpt())
	}
	b.ReportMetric(suite.HMeanSpeedup(valleymap.PAE), "PAE-hmean-speedup")
	b.ReportMetric(suite.HMeanSpeedup(valleymap.FAE), "FAE-hmean-speedup")
}

// ---------------------------------------------------------------------
// Streaming-pipeline benchmarks (the PR-2 refactor): materialized
// build+copy+profile vs one-pass generate→coalesce→profile.
// ---------------------------------------------------------------------

// BenchmarkProfilePipeline compares the two profiling pipelines end to
// end on MT at small scale. "materialized" is the pre-streaming path
// (Build the trace, CoalesceApp copies it, AppProfile walks it);
// "streaming" folds the generator's batches online in one sequential
// pass at O(window × bits) memory. The ns/request metric divides by the
// coalesced request count.
func BenchmarkProfilePipeline(b *testing.B) {
	spec, _ := valleymap.WorkloadByAbbr("MT")
	perRequest := func(b *testing.B, prof valleymap.Profile) {
		b.Helper()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(prof.Requests), "ns/request")
	}

	b.Run("materialized", func(b *testing.B) {
		b.ReportAllocs()
		var prof valleymap.Profile
		for i := 0; i < b.N; i++ {
			app := spec.Build(valleymap.ScaleSmall)
			prof = valleymap.AnalyzeApp(app, valleymap.AnalysisOptions{})
		}
		perRequest(b, prof)
	})
	b.Run("streaming", func(b *testing.B) {
		b.ReportAllocs()
		var prof valleymap.Profile
		for i := 0; i < b.N; i++ {
			var err error
			prof, err = valleymap.AnalyzeSource(spec.Source(valleymap.ScaleSmall),
				valleymap.AnalysisOptions{})
			if err != nil {
				b.Fatal(err)
			}
		}
		perRequest(b, prof)
	})
}
