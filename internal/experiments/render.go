package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"valleymap/internal/entropy"
	"valleymap/internal/layout"
	"valleymap/internal/mapping"
)

// sparkline renders a per-bit entropy profile MSB-first (bit 29 left,
// bit 6 right, like Figure 5), using eight levels.
func sparkline(p entropy.Profile, hi, lo int) string {
	levels := []rune("▁▂▃▄▅▆▇█")
	var sb strings.Builder
	for b := hi; b >= lo; b-- {
		v := p.PerBit[b]
		idx := int(v * float64(len(levels)))
		if idx >= len(levels) {
			idx = len(levels) - 1
		}
		if idx < 0 {
			idx = 0
		}
		sb.WriteRune(levels[idx])
	}
	return sb.String()
}

// figure3Output is the worked window-entropy example.
func figure3Output(Options) Output {
	h2, h4 := Figure3()
	return Output{
		Data: map[string]float64{"hstar_w2": h2, "hstar_w4": h4},
		Render: func(w io.Writer) {
			fmt.Fprintf(w, "Figure 3 — window-based entropy worked example\n")
			fmt.Fprintf(w, "  window=2: H* = %.4f (paper: 3/7 = 0.4286)\n", h2)
			fmt.Fprintf(w, "  window=4: H* = %.4f (paper: 1.0)\n", h4)
		},
	}
}

// figure5Profile is one workload's entry in Figure 5's JSON data.
type figure5Profile struct {
	PerBit   []float64 `json:"per_bit"`
	Requests int       `json:"requests"`
	Valley   bool      `json:"valley"`
}

// figure5Output is all 18 entropy distributions, each with its valley
// verdict; the text prints them as sparklines over bits 29..6 with the
// channel/bank window marked.
func figure5Output(opt Options) Output {
	profs := Figure5(opt)
	l := layout.HynixGDDR5()
	ch, bank := l.FieldBits(layout.Channel), l.FieldBits(layout.Bank)
	data := make(map[string]figure5Profile, len(profs))
	abbrs := make([]string, 0, len(profs))
	for a, p := range profs {
		valley := p.ChannelBankValley(ch, bank, entropy.DefaultLow, entropy.DefaultHigh)
		data[a] = figure5Profile{PerBit: p.PerBit, Requests: p.Requests, Valley: valley}
		abbrs = append(abbrs, a)
	}
	sort.Strings(abbrs)
	return Output{Data: data, Render: func(w io.Writer) {
		fmt.Fprintf(w, "Figure 5 — entropy distributions (bit 29 ... bit 6), window=%d\n", entropy.DefaultWindow)
		fmt.Fprintf(w, "  channel bits 8-9, bank bits 10-13 (positions marked by ^)\n")
		for _, a := range abbrs {
			valley := ""
			if data[a].Valley {
				valley = "  <- entropy valley"
			}
			fmt.Fprintf(w, "  %-8s %s%s\n", a, sparkline(profs[a], 29, 6), valley)
		}
		fmt.Fprintf(w, "  %-8s %s\n", "", strings.Repeat(" ", 29-13)+"^^^^^^")
	}}
}

// figure10Output is MT's entropy under each scheme.
func figure10Output(opt Options) Output {
	profs := Figure10(opt)
	data := map[string]any{}
	for sc, p := range profs {
		data[string(sc)] = map[string]any{"per_bit": p.PerBit, "requests": p.Requests}
	}
	return Output{Data: data, Render: func(w io.Writer) {
		fmt.Fprintf(w, "Figure 10 — MT entropy by mapping scheme (bit 29 ... bit 6)\n")
		for _, s := range mapping.Schemes() {
			p := profs[s]
			fmt.Fprintf(w, "  %-5s %s  min(ch+bank)=%.2f\n", s, sparkline(p, 29, 6),
				p.Min([]int{8, 9, 10, 11, 12, 13}))
		}
	}}
}

// table2Output is measured vs paper benchmark characteristics.
func table2Output(opt Options) Output {
	rows := Table2(opt)
	return Output{Data: rows, Render: func(w io.Writer) {
		fmt.Fprintf(w, "Table II — benchmark characteristics (measured @ %s scale vs paper)\n", opt.Scale)
		fmt.Fprintf(w, "  %-6s %9s %9s %6s %12s   %9s %9s %7s\n",
			"Bench", "APKI", "MPKI", "#Knls", "#Insns", "pAPKI", "pMPKI", "p#Knls")
		for _, r := range rows {
			fmt.Fprintf(w, "  %-6s %9.2f %9.2f %6d %12d   %9.2f %9.2f %7d\n",
				r.Abbr, r.APKI, r.MPKI, r.Kernels, r.Instructions,
				r.PaperAPKI, r.PaperMPKI, r.PaperKernels)
		}
	}}
}

// suiteOutput is Figures 11–17 from one valley-suite run.
func suiteOutput(opt Options) Output {
	suite := ValleySuite(opt)
	return Output{Data: SuitePayload(suite), Render: func(w io.Writer) {
		fmt.Fprintf(w, "Running the valley suite (10 benchmarks x 6 schemes, %s scale)...\n\n", opt.Scale)
		renderSuite(w, suite)
	}}
}

// renderSuite prints Figures 11–17 from one valley-suite run.
func renderSuite(w io.Writer, suite SuiteResult) {
	schemes := suite.Schemes

	fmt.Fprintf(w, "Figure 11 — normalized execution time vs normalized DRAM power (valley mean)\n")
	fmt.Fprintf(w, "  %-5s %10s %10s %10s\n", "Map", "ExecTime", "DRAMPower", "Speedup")
	for _, s := range schemes {
		fmt.Fprintf(w, "  %-5s %10.3f %10.3f %10.2fx\n", s,
			suite.NormalizedExecTime(s), suite.NormalizedDRAMPower(s),
			ArithMean(suite.SpeedupSeries(s)))
	}

	fmt.Fprintf(w, "\nFigure 12 — per-benchmark speedup over BASE\n")
	fmt.Fprintf(w, "  %-8s", "Bench")
	for _, s := range schemes {
		fmt.Fprintf(w, " %8s", s)
	}
	fmt.Fprintln(w)
	for _, wl := range suite.Workloads {
		fmt.Fprintf(w, "  %-8s", wl)
		for _, s := range schemes {
			fmt.Fprintf(w, " %7.2fx", suite.Speedup(wl, s))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  %-8s", "HMEAN")
	for _, s := range schemes {
		fmt.Fprintf(w, " %7.2fx", suite.HMeanSpeedup(s))
	}
	fmt.Fprintln(w)

	renderMetric := func(title, unit string, get func(r mapping.Scheme, wl string) float64, avg bool) {
		fmt.Fprintf(w, "\n%s\n", title)
		fmt.Fprintf(w, "  %-8s", "Bench")
		for _, s := range schemes {
			fmt.Fprintf(w, " %8s", s)
		}
		fmt.Fprintln(w)
		sums := make(map[mapping.Scheme]float64)
		for _, wl := range suite.Workloads {
			fmt.Fprintf(w, "  %-8s", wl)
			for _, s := range schemes {
				v := get(s, wl)
				sums[s] += v
				fmt.Fprintf(w, " %8.2f", v)
			}
			fmt.Fprintln(w)
		}
		if avg {
			fmt.Fprintf(w, "  %-8s", "AVG")
			for _, s := range schemes {
				fmt.Fprintf(w, " %8.2f", sums[s]/float64(len(suite.Workloads)))
			}
			fmt.Fprintf(w, "  (%s)\n", unit)
		}
	}

	renderMetric("Figure 13a — average NoC packet latency", "NoC cycles",
		func(s mapping.Scheme, wl string) float64 { return suite.Results[wl][s].NoCAvgLatencyCycles }, true)
	renderMetric("Figure 13b — LLC miss rate", "fraction",
		func(s mapping.Scheme, wl string) float64 { return suite.Results[wl][s].LLC.MissRate() }, true)
	renderMetric("Figure 14a — LLC-level parallelism", "busy slices",
		func(s mapping.Scheme, wl string) float64 { return suite.Results[wl][s].LLCParallelism }, true)
	renderMetric("Figure 14b — channel-level parallelism", "busy channels",
		func(s mapping.Scheme, wl string) float64 { return suite.Results[wl][s].ChannelParallelism }, true)
	renderMetric("Figure 14c — bank-level parallelism (per channel)", "busy banks",
		func(s mapping.Scheme, wl string) float64 { return suite.Results[wl][s].BankParallelism }, true)
	renderMetric("Figure 15 — DRAM row-buffer hit rate", "fraction",
		func(s mapping.Scheme, wl string) float64 { return suite.Results[wl][s].DRAM.RowBufferHitRate() }, true)

	fmt.Fprintf(w, "\nFigure 16 — DRAM power breakdown (W), averaged over valley benchmarks\n")
	fmt.Fprintf(w, "  %-5s %10s %10s %10s %10s %10s\n", "Map", "background", "activate", "read", "write", "total")
	for _, s := range schemes {
		var bg, act, rd, wr float64
		for _, wl := range suite.Workloads {
			p := suite.Results[wl][s].DRAMPower
			bg += p.Background
			act += p.Activate
			rd += p.Read
			wr += p.Write
		}
		n := float64(len(suite.Workloads))
		fmt.Fprintf(w, "  %-5s %10.2f %10.2f %10.2f %10.2f %10.2f\n",
			s, bg/n, act/n, rd/n, wr/n, (bg+act+rd+wr)/n)
	}

	fmt.Fprintf(w, "\nFigure 17 — normalized performance per watt (GPU+DRAM)\n")
	fmt.Fprintf(w, "  %-8s", "Bench")
	for _, s := range schemes {
		fmt.Fprintf(w, " %8s", s)
	}
	fmt.Fprintln(w)
	for i, wl := range suite.Workloads {
		fmt.Fprintf(w, "  %-8s", wl)
		for _, s := range schemes {
			fmt.Fprintf(w, " %8.2f", suite.NormalizedPerfPerWatt(s)[i])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  %-8s", "HMEAN")
	for _, s := range schemes {
		fmt.Fprintf(w, " %8.2f", HarmonicMean(suite.NormalizedPerfPerWatt(s)))
	}
	fmt.Fprintln(w)
}

// figure18Output is the SM-count / 3D sensitivity study.
func figure18Output(opt Options) Output {
	pts := Figure18(opt)
	return Output{Data: pts, Render: func(w io.Writer) {
		fmt.Fprintf(w, "Figure 18 — sensitivity to SM count and memory organization (mean speedup)\n")
		fmt.Fprintf(w, "  %-12s", "Config")
		for _, s := range mapping.Schemes() {
			fmt.Fprintf(w, " %8s", s)
		}
		fmt.Fprintln(w)
		for _, pt := range pts {
			fmt.Fprintf(w, "  %-12s", pt.Config)
			for _, s := range mapping.Schemes() {
				fmt.Fprintf(w, " %7.2fx", pt.Speedups[s])
			}
			fmt.Fprintln(w)
		}
	}}
}

// figure19Output is BIM-instance sensitivity.
func figure19Output(opt Options) Output {
	res := Figure19(opt)
	return Output{Data: res, Render: func(w io.Writer) {
		fmt.Fprintf(w, "Figure 19 — speedup for three random BIMs per scheme\n")
		fmt.Fprintf(w, "  %-5s %8s %8s %8s\n", "Map", "BIM-1", "BIM-2", "BIM-3")
		for _, s := range mapping.Proposed() {
			trio := res[s]
			fmt.Fprintf(w, "  %-5s %7.2fx %7.2fx %7.2fx\n", s, trio[0], trio[1], trio[2])
		}
	}}
}

// figure20Output is the non-valley benchmark results.
func figure20Output(opt Options) Output {
	suite := NonValleySuite(opt)
	return Output{Data: SuitePayload(suite), Render: func(w io.Writer) {
		fmt.Fprintf(w, "Figure 20 — non-valley benchmarks, speedup over BASE\n")
		fmt.Fprintf(w, "  %-8s", "Bench")
		for _, s := range suite.Schemes {
			fmt.Fprintf(w, " %8s", s)
		}
		fmt.Fprintln(w)
		for _, wl := range suite.Workloads {
			fmt.Fprintf(w, "  %-8s", wl)
			for _, s := range suite.Schemes {
				fmt.Fprintf(w, " %7.2fx", suite.Speedup(wl, s))
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "  %-8s", "HMEAN")
		for _, s := range suite.Schemes {
			fmt.Fprintf(w, " %7.2fx", suite.HMeanSpeedup(s))
		}
		fmt.Fprintln(w)
	}}
}
