package experiments

import (
	"fmt"
	"io"
	"math/bits"

	"valleymap/internal/entropy"
	"valleymap/internal/gpusim"
	"valleymap/internal/layout"
	"valleymap/internal/mapping"
	"valleymap/internal/trace"
	"valleymap/internal/workload"
)

// The ablations quantify two central design choices:
// how wide the BIM's input-bit range must be (the paper's Broad-vs-PM
// argument, Section IV-A) and how the entropy metric responds to the
// window-size parameter w (Section III-A).

// BreadthPoint is one input-mask configuration of the breadth ablation.
type BreadthPoint struct {
	Name    string  `json:"name"`
	InMask  uint64  `json:"in_mask"`
	Speedup float64 `json:"speedup"`                  // arithmetic mean over the sampled valley benchmarks
	MinCB   float64 `json:"min_channel_bank_entropy"` // post-mapping min channel/bank entropy, averaged
}

// AblationInputBreadth sweeps the input-bit mask of a Broad-strategy BIM
// from PM-narrow (two low row bits) to FAE-wide (the full non-block
// address) and measures both the entropy delivered to the channel/bank
// bits and the resulting speedup. This isolates the paper's core claim:
// breadth, not XOR-ing per se, is what makes a mapping robust.
func AblationInputBreadth(opt Options) []BreadthPoint {
	opt = opt.withDefaults()
	l := layout.HynixGDDR5()
	cfg := gpusim.Baseline()
	rowBits := l.FieldBits(layout.Row)
	targetMask := l.MaskOf(layout.Channel, layout.Bank)
	narrow := targetMask | 1<<uint(rowBits[0]) | 1<<uint(rowBits[1])
	half := targetMask
	for _, b := range rowBits[:len(rowBits)/2] {
		half |= 1 << uint(b)
	}
	points := []BreadthPoint{
		{Name: "narrow-2row", InMask: narrow},
		{Name: "half-page", InMask: half},
		{Name: "page (PAE)", InMask: l.PageMask()},
		{Name: "full (FAE)", InMask: l.NonBlockMask()},
	}
	// A representative slice of the valley set keeps the sweep fast while
	// covering valleys at different bit positions.
	specs := []string{"MT", "LU", "SC", "SP"}
	chBank := layout.Bits0(targetMask)
	runner := gpusim.NewRunner()
	for i := range points {
		m := mapping.NewBroadCustom(mapping.Scheme(points[i].Name), l, points[i].InMask, opt.Seed)
		var spSum, cbSum float64
		for _, abbr := range specs {
			spec, _ := workload.ByAbbr(abbr)
			app := spec.Build(opt.Scale)
			base := runner.Run(app, mapping.NewBASE(l), cfg)
			res := runner.Run(app, m, cfg)
			spSum += float64(base.ExecTime) / float64(res.ExecTime)
			cbSum += profileSource(trace.AppSource(app), m.MapBatch).Min(chBank)
		}
		points[i].Speedup = spSum / float64(len(specs))
		points[i].MinCB = cbSum / float64(len(specs))
	}
	return points
}

// WindowPoint is one entry of the window-size sensitivity sweep.
type WindowPoint struct {
	Window int `json:"window"`
	// MeanChBank is MT's mean channel/bank entropy at this window size.
	MeanChBank float64 `json:"mean_channel_bank_entropy"`
	// MeanAll is the mean entropy over all non-block bits.
	MeanAll float64 `json:"mean_entropy"`
}

// AblationWindowSize sweeps the window parameter w for MT, reproducing
// the Section III-A observation that available entropy grows with the
// number of concurrently executing TBs (Figure 3's lesson at full scale).
func AblationWindowSize(opt Options, windows []int) []WindowPoint {
	opt = opt.withDefaults()
	spec, _ := workload.ByAbbr("MT")
	// Coalesce once into memory, then stream one profiling pass per
	// window size.
	app := trace.CoalesceApp(spec.Build(opt.Scale), trace.DefaultLineBytes)
	src := trace.AppSource(app)
	chBank := []int{8, 9, 10, 11, 12, 13}
	var nonBlock []int
	for b := 6; b < entropy.DefaultBits; b++ {
		nonBlock = append(nonBlock, b)
	}
	out := make([]WindowPoint, 0, len(windows))
	for _, w := range windows {
		p := streamProfile(src.Stream(), w, nil)
		out = append(out, WindowPoint{
			Window:     w,
			MeanChBank: p.Mean(chBank),
			MeanAll:    p.Mean(nonBlock),
		})
	}
	return out
}

// ablationOutput is both ablations: the input-breadth sweep and MT's
// window sweep over w = 1..48.
func ablationOutput(opt Options) Output {
	breadth := AblationInputBreadth(opt)
	windows := AblationWindowSize(opt, []int{1, 2, 4, 8, 12, 16, 24, 48})
	return Output{
		Data: map[string]any{"input_breadth": breadth, "window_size": windows},
		Render: func(w io.Writer) {
			fmt.Fprintf(w, "Ablation — BIM input-bit breadth (MT/LU/SC/SP mean)\n")
			fmt.Fprintf(w, "  %-12s %14s %10s %14s\n", "inputs", "input bits", "speedup", "min ch+bank H")
			for _, pt := range breadth {
				fmt.Fprintf(w, "  %-12s %14d %9.2fx %14.2f\n",
					pt.Name, bits.OnesCount64(pt.InMask), pt.Speedup, pt.MinCB)
			}
			fmt.Fprintln(w)
			fmt.Fprintf(w, "Ablation — window size sensitivity (MT)\n")
			fmt.Fprintf(w, "  %-8s %14s %12s\n", "window", "mean ch+bank H", "mean H")
			for _, pt := range windows {
				fmt.Fprintf(w, "  %-8d %14.3f %12.3f\n", pt.Window, pt.MeanChBank, pt.MeanAll)
			}
		},
	}
}
