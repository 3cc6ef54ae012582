// Package experiments regenerates every table and figure of the paper's
// evaluation (Section VI) plus the analysis figures of Sections II–IV.
// Each experiment has a structured form (for tests and benchmarks), and
// one table (table.go) names every experiment and turns its computed
// value into both outputs of the cmd/experiments tool: text and JSON.
package experiments

import (
	"fmt"

	"valleymap/internal/entropy"
	"valleymap/internal/gpusim"
	"valleymap/internal/layout"
	"valleymap/internal/mapping"
	"valleymap/internal/trace"
	"valleymap/internal/workload"
)

// Options controls experiment scale and randomness. Every experiment
// profiles at the repo-wide analysis defaults: entropy.DefaultWindow,
// entropy.DefaultBits and trace.DefaultLineBytes.
type Options struct {
	// Scale selects trace size (workload.Small is the bench default).
	Scale workload.Scale
	// Seed selects the random BIM instance for PAE/FAE/ALL (1..3 map to
	// BIM-1..BIM-3 of Figure 19).
	Seed int64
}

// Defaults fills zero fields.
func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// streamProfile drains a stream through the online profiler in one
// sequential pass — the experiments' profiling hot path — optionally
// mapping addresses a batch at a time through bf.
// In-memory and generator streams cannot fail, so an error here is a
// programming bug, not an input condition.
func streamProfile(st trace.Stream, window int, bf func([]uint64)) entropy.Profile {
	p, err := entropy.ProfileStream(st, entropy.StreamOptions{
		Window: window, Bits: entropy.DefaultBits, BatchTransform: bf,
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: profiling stream: %v", err))
	}
	return p
}

// profileSource profiles straight from a source: coalesce → profile at
// the default window and O(TB) memory, never materializing the trace,
// optionally mapping addresses through bf after coalescing.
func profileSource(src trace.Source, bf func([]uint64)) entropy.Profile {
	st := trace.CoalesceStream(src.Stream(), trace.DefaultLineBytes)
	return streamProfile(st, entropy.DefaultWindow, bf)
}

// Figure3 reproduces the worked window-entropy example: 8 TBs with BVR
// pattern 0,0,1,1,0,0,1,1 under window sizes 2 and 4. It returns
// (H* at w=2, H* at w=4) = (3/7, 1).
func Figure3() (w2, w4 float64) {
	pattern := []int{0, 0, 1, 1, 0, 0, 1, 1}
	tbs := make([]entropy.TBProfile, len(pattern))
	for i, b := range pattern {
		tbs[i] = entropy.TBProfile{
			ID:       i + 1,
			BVR:      []entropy.Ratio{{Ones: int64(b), Total: 1}},
			Requests: 1,
		}
	}
	return entropy.WindowEntropy(tbs, 2, 1).PerBit[0],
		entropy.WindowEntropy(tbs, 4, 1).PerBit[0]
}

// Figure5 computes the entropy distribution of all 18 workloads
// (16 benchmarks + SRAD2K1 + DWT2DK1), keyed by abbreviation.
func Figure5(opt Options) map[string]entropy.Profile {
	opt = opt.withDefaults()
	out := make(map[string]entropy.Profile, 18)
	for _, spec := range workload.All() {
		out[spec.Abbr] = profileSource(spec.Source(opt.Scale), nil)
	}
	return out
}

// Figure10 computes MT's entropy distribution under all six mapping
// schemes. PAE/FAE must fill the channel/bank valley; ALL fills all
// valleys.
func Figure10(opt Options) map[mapping.Scheme]entropy.Profile {
	opt = opt.withDefaults()
	spec, _ := workload.ByAbbr("MT")
	app := spec.Build(opt.Scale)
	l := layout.HynixGDDR5()
	out := make(map[mapping.Scheme]entropy.Profile, 6)
	for _, s := range mapping.Schemes() {
		m := mapping.MustNew(s, l, mapping.Options{Seed: opt.Seed})
		// Build once, stream each candidate's profile with the batched
		// BIM transform hook (coalescing precedes the mapper).
		out[s] = profileSource(trace.AppSource(app), m.MapBatch)
	}
	return out
}

// SuiteResult holds simulation results for a set of workloads × schemes.
type SuiteResult struct {
	Workloads []string
	Schemes   []mapping.Scheme
	// Results[abbr][scheme] is the full simulation result.
	Results map[string]map[mapping.Scheme]gpusim.Result
}

// RunSuite simulates every workload under every scheme on one system
// configuration.
func RunSuite(specs []workload.Spec, schemes []mapping.Scheme, cfg gpusim.Config, opt Options) SuiteResult {
	opt = opt.withDefaults()
	out := SuiteResult{Schemes: schemes, Results: map[string]map[mapping.Scheme]gpusim.Result{}}
	// One Runner for the whole suite: cells run sequentially, so the
	// engine slab and request pools stay warm across every cell.
	runner := gpusim.NewRunner()
	for _, spec := range specs {
		app := spec.Build(opt.Scale)
		row := map[mapping.Scheme]gpusim.Result{}
		for _, s := range schemes {
			m := mapping.MustNew(s, cfg.Layout, mapping.Options{Seed: opt.Seed})
			row[s] = runner.Run(app, m, cfg)
		}
		out.Workloads = append(out.Workloads, spec.Abbr)
		out.Results[spec.Abbr] = row
	}
	return out
}

// ValleySuite runs the ten valley benchmarks on the baseline system —
// the data behind Figures 11–17.
func ValleySuite(opt Options) SuiteResult {
	return RunSuite(workload.ValleySet(), mapping.Schemes(), gpusim.Baseline(), opt)
}

// NonValleySuite runs the six non-valley benchmarks (Figure 20).
func NonValleySuite(opt Options) SuiteResult {
	return RunSuite(workload.NonValleySet(), mapping.Schemes(), gpusim.Baseline(), opt)
}

// Speedup returns exec-time(BASE)/exec-time(scheme) for one workload.
func (r SuiteResult) Speedup(abbr string, s mapping.Scheme) float64 {
	base := r.Results[abbr][mapping.BASE].ExecTime
	cur := r.Results[abbr][s].ExecTime
	if cur <= 0 {
		return 0
	}
	return float64(base) / float64(cur)
}

// SpeedupSeries returns per-workload speedups for one scheme, in suite
// order.
func (r SuiteResult) SpeedupSeries(s mapping.Scheme) []float64 {
	out := make([]float64, len(r.Workloads))
	for i, w := range r.Workloads {
		out[i] = r.Speedup(w, s)
	}
	return out
}

// HMeanSpeedup is the paper's HMEAN bar of Figures 12/17/20.
func (r SuiteResult) HMeanSpeedup(s mapping.Scheme) float64 {
	return HarmonicMean(r.SpeedupSeries(s))
}

// NormalizedDRAMPower returns mean DRAM power of a scheme normalized to
// BASE (Figure 11's x-axis).
func (r SuiteResult) NormalizedDRAMPower(s mapping.Scheme) float64 {
	var ratios []float64
	for _, w := range r.Workloads {
		b := r.Results[w][mapping.BASE].DRAMPower.Total()
		c := r.Results[w][s].DRAMPower.Total()
		if b > 0 {
			ratios = append(ratios, c/b)
		}
	}
	return ArithMean(ratios)
}

// NormalizedExecTime returns mean execution time normalized to BASE
// (Figure 11's y-axis).
func (r SuiteResult) NormalizedExecTime(s mapping.Scheme) float64 {
	var ratios []float64
	for _, w := range r.Workloads {
		b := r.Results[w][mapping.BASE].ExecTime
		c := r.Results[w][s].ExecTime
		if b > 0 {
			ratios = append(ratios, float64(c)/float64(b))
		}
	}
	return ArithMean(ratios)
}

// NormalizedPerfPerWatt returns per-workload perf/W normalized to BASE
// (Figure 17) for one scheme.
func (r SuiteResult) NormalizedPerfPerWatt(s mapping.Scheme) []float64 {
	out := make([]float64, len(r.Workloads))
	for i, w := range r.Workloads {
		b := r.Results[w][mapping.BASE].PerfPerW
		c := r.Results[w][s].PerfPerW
		if b > 0 {
			out[i] = c / b
		}
	}
	return out
}

// Figure18Point is one bar group of the SM-count/3D sensitivity study.
type Figure18Point struct {
	Config   string                     `json:"config"`
	Speedups map[mapping.Scheme]float64 `json:"speedups"` // arithmetic mean over valley set
}

// Figure18 runs the valley suite on 12/24/48-SM conventional systems and
// the 64-SM 3D-stacked system.
func Figure18(opt Options) []Figure18Point {
	opt = opt.withDefaults()
	configs := []gpusim.Config{
		gpusim.Conventional(12),
		gpusim.Conventional(24),
		gpusim.Conventional(48),
		gpusim.Stacked3D(),
	}
	var out []Figure18Point
	for _, cfg := range configs {
		suite := RunSuite(workload.ValleySet(), mapping.Schemes(), cfg, opt)
		pt := Figure18Point{Config: cfg.Name, Speedups: map[mapping.Scheme]float64{}}
		for _, s := range mapping.Schemes() {
			pt.Speedups[s] = ArithMean(suite.SpeedupSeries(s))
		}
		out = append(out, pt)
	}
	return out
}

// Figure19 evaluates BIM-instance sensitivity: three random BIMs per
// proposed scheme, mean speedup over the valley set for each.
func Figure19(opt Options) map[mapping.Scheme][3]float64 {
	opt = opt.withDefaults()
	out := map[mapping.Scheme][3]float64{}
	for _, s := range mapping.Proposed() {
		var trio [3]float64
		for i := 0; i < 3; i++ {
			o := opt
			o.Seed = int64(i + 1)
			suite := RunSuite(workload.ValleySet(), []mapping.Scheme{mapping.BASE, s}, gpusim.Baseline(), o)
			trio[i] = ArithMean(suite.SpeedupSeries(s))
		}
		out[s] = trio
	}
	return out
}

// Table2Row is one measured row of Table II.
type Table2Row struct {
	Abbr         string  `json:"abbr"`
	APKI         float64 `json:"apki"` // measured under BASE
	MPKI         float64 `json:"mpki"`
	Kernels      int     `json:"kernels"`      // kernels in the (scaled) trace
	Instructions int64   `json:"instructions"` // dynamic instructions in the (scaled) trace
	PaperAPKI    float64 `json:"paper_apki"`
	PaperMPKI    float64 `json:"paper_mpki"`
	PaperKernels int     `json:"paper_kernels"`
}

// Table2 measures benchmark characteristics under the BASE mapping.
func Table2(opt Options) []Table2Row {
	opt = opt.withDefaults()
	cfg := gpusim.Baseline()
	base := mapping.NewBASE(cfg.Layout)
	var out []Table2Row
	runner := gpusim.NewRunner()
	for _, spec := range workload.Catalog() {
		app := spec.Build(opt.Scale)
		res := runner.Run(app, base, cfg)
		out = append(out, Table2Row{
			Abbr:         spec.Abbr,
			APKI:         res.APKI,
			MPKI:         res.MPKI,
			Kernels:      len(app.Kernels),
			Instructions: app.Instructions(),
			PaperAPKI:    spec.PaperAPKI,
			PaperMPKI:    spec.PaperMPKI,
			PaperKernels: spec.PaperKernels,
		})
	}
	return out
}

// HarmonicMean of positive values (0 if empty or any non-positive).
func HarmonicMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += 1 / x
	}
	return float64(len(xs)) / sum
}

// ArithMean of values (0 if empty).
func ArithMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
