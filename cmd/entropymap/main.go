// Command entropymap prints the window-based entropy distribution of a
// benchmark, optionally after an address mapping scheme — the per-
// workload view behind Figures 5 and 10.
//
// Traces are profiled through the streaming pipeline (generate/decode →
// coalesce → online windowed profile), so -trace handles files far
// larger than memory at O(window × bits) footprint. Both trace
// containers are accepted (sniffed by magic): CSV streams through the
// text decoder, VTRC binary (see cmd/tracepack) is mmapped and
// profiled zero-copy.
//
// Usage:
//
//	entropymap -bench MT [-scheme PAE] [-window 12] [-scale small] [-seed 1]
//	entropymap -trace dump.csv [-scheme PAE] [-window 12]
//	entropymap -trace dump.vtrc
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"valleymap"
)

func bar(v float64) string {
	n := int(v*40 + 0.5)
	return strings.Repeat("#", n) + strings.Repeat(".", 40-n)
}

func main() {
	bench := flag.String("bench", "MT", "benchmark abbreviation (Table II)")
	traceFile := flag.String("trace", "", "analyze a trace file (CSV or VTRC binary, sniffed) instead of a packaged benchmark")
	scheme := flag.String("scheme", "", "optional mapping scheme applied before analysis")
	window := flag.Int("window", 12, "window size w (TBs executing concurrently)")
	scale := flag.String("scale", "small", "trace scale: tiny, small, full")
	seed := flag.Int64("seed", 1, "BIM seed")
	flag.Parse()

	sc, err := valleymap.ParseScale(*scale)
	if err != nil {
		badFlag(err)
	}
	opt := valleymap.AnalysisOptions{Window: *window}
	title := "physical addresses (BASE)"
	if *scheme != "" {
		s, err := valleymap.ParseScheme(*scheme)
		if err != nil {
			badFlag(err)
		}
		opt.Transform = valleymap.NewMapper(s, valleymap.HynixGDDR5(), *seed).Map
		title = fmt.Sprintf("after %s mapping", s)
	}

	// Both inputs stream: the generator emits TB by TB, file decoders
	// yield batches as the file is read (binary files are mmapped and
	// served zero-copy). Nothing materializes the trace.
	var src valleymap.TraceSource
	if *traceFile != "" {
		s, release, err := valleymap.OpenTraceFile(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		defer release() //nolint:errcheck // read-only handle
		src = s
	} else {
		spec, ok := valleymap.WorkloadByAbbr(strings.ToUpper(*bench))
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown benchmark %q\n", *bench)
			os.Exit(2)
		}
		src = spec.Source(sc)
	}
	prof, err := valleymap.AnalyzeSource(src, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	info := src.Info()
	l := valleymap.HynixGDDR5()
	fmt.Printf("%s (%s): window-based entropy of %s, w=%d, %d requests\n",
		info.Name, info.Abbr, title, *window, prof.Requests)
	fmt.Printf("layout: %s\n\n", l)
	for b := 29; b >= 6; b-- {
		field := ""
		switch {
		case b >= 18:
			field = "row"
		case b >= 14:
			field = "col"
		case b >= 10:
			field = "BANK"
		case b >= 8:
			field = "CHAN"
		default:
			field = "col"
		}
		fmt.Printf("bit %2d %-4s %.3f %s\n", b, field, prof.PerBit[b], bar(prof.PerBit[b]))
	}
	ch, bank := l.FieldBits(valleymap.FieldChannel), l.FieldBits(valleymap.FieldBank)
	chBank := append(append([]int(nil), ch...), bank...)
	fmt.Printf("\nchannel+bank entropy: mean %.3f, min %.3f",
		prof.Mean(chBank), prof.Min(chBank))
	if prof.ChannelBankValley(ch, bank, valleymap.ValleyLow, valleymap.ValleyHigh) {
		fmt.Printf("  -> ENTROPY VALLEY")
	}
	fmt.Println()
}

// badFlag reports an invalid flag value on one line and exits 2, the
// flag package's own code for bad usage.
func badFlag(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}
