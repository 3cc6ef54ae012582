// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-exp all|fig3|fig5|fig10|table2|suite|fig18|fig19|fig20|ablation]
//	            [-scale tiny|small|full] [-seed N] [-format text|json]
//	experiments -trace FILE [-window 12] [-format text|json]
//
// "suite" renders Figures 11–17 from one valley-benchmark sweep. With
// -format json, each experiment emits a machine-readable envelope
// ({"experiment","options","data"}) instead of rendered text — one JSON
// value for a single experiment, a JSON array for -exp all — so services
// and scripts can consume sweep results directly.
//
// -trace sidesteps the packaged benchmarks entirely and profiles a local
// trace file with the Figure-5 per-bit analysis. Both containers are
// accepted (sniffed by magic): CSV streams through the text decoder;
// VTRC binary (see cmd/tracepack) is mmapped and profiled zero-copy,
// so full-scale captures profile at flat memory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"valleymap"
	"valleymap/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: all, fig3, fig5, fig10, table2, suite, fig18, fig19, fig20, ablation")
	scale := flag.String("scale", "small", "trace scale: tiny, small, full")
	seed := flag.Int64("seed", 1, "BIM seed (1..3 are the paper's BIM-1..BIM-3)")
	format := flag.String("format", "text", "output format: text, json")
	traceFile := flag.String("trace", "", "profile a local trace file (CSV or VTRC binary, sniffed) instead of running packaged experiments")
	window := flag.Int("window", 12, "window size w for -trace profiling")
	flag.Parse()

	if *traceFile != "" {
		if err := profileTrace(*traceFile, *window, strings.ToLower(*format)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		return
	}

	sc, err := valleymap.ParseScale(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	opt := valleymap.ExperimentOptions{Scale: sc, Seed: *seed}

	name := strings.ToLower(*exp)
	names := []string{name}
	if name == "all" {
		names = experimentOrder
	}

	switch strings.ToLower(*format) {
	case "text":
		renderText(names, opt, *scale)
	case "json":
		renderJSON(names, opt)
	default:
		fmt.Fprintf(os.Stderr, "unknown format %q (want text or json)\n", *format)
		os.Exit(2)
	}
}

// profileTrace runs the Figure-5 per-bit entropy analysis over a local
// trace file. Binary files take the mmap path inside OpenTraceFile, so
// the profile runs zero-copy at flat memory regardless of trace size.
func profileTrace(path string, window int, format string) error {
	src, release, err := valleymap.OpenTraceFile(path)
	if err != nil {
		return err
	}
	defer release() //nolint:errcheck // read-only handle
	prof, err := valleymap.AnalyzeSource(src, valleymap.AnalysisOptions{Window: window})
	if err != nil {
		return err
	}
	info := src.Info()
	switch format {
	case "json":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(map[string]any{
			"experiment": "trace",
			"options":    map[string]any{"trace": path, "window": window},
			"data": map[string]any{
				"name":     info.Name,
				"abbr":     info.Abbr,
				"requests": prof.Requests,
				"per_bit":  prof.PerBit,
			},
		})
	case "text":
		fmt.Printf("%s (%s): per-bit window entropy, w=%d, %d requests\n",
			info.Name, info.Abbr, window, prof.Requests)
		for b := 29; b >= 6; b-- {
			fmt.Printf("bit %2d  %.3f\n", b, prof.PerBit[b])
		}
		return nil
	default:
		return fmt.Errorf("unknown format %q (want text or json)", format)
	}
}

// experimentOrder is the "all" sequence, taken from the experiments
// package so this file, the JSON switch, and the run map cannot drift;
// renderText and JSONPayload each validate individual names, so an
// unknown -exp value errors cleanly in either format.
var experimentOrder = experiments.Names()

func unknownExperiment(name string) {
	fmt.Fprintf(os.Stderr, "unknown experiment %q (want one of all %s)\n", name, strings.Join(experimentOrder, " "))
	os.Exit(2)
}

func renderText(names []string, opt valleymap.ExperimentOptions, scale string) {
	out := os.Stdout
	run := map[string]func(){
		"fig3":   func() { valleymap.RenderFigure3(out) },
		"fig5":   func() { valleymap.RenderFigure5(out, opt) },
		"fig10":  func() { valleymap.RenderFigure10(out, opt) },
		"table2": func() { valleymap.RenderTable2(out, opt) },
		"suite": func() {
			fmt.Fprintf(out, "Running the valley suite (10 benchmarks x 6 schemes, %s scale)...\n\n", scale)
			suite := valleymap.ValleySuite(opt)
			valleymap.RenderSuiteFigures(out, suite)
		},
		"fig18": func() { valleymap.RenderFigure18(out, opt) },
		"fig19": func() { valleymap.RenderFigure19(out, opt) },
		"fig20": func() {
			suite := valleymap.NonValleySuite(opt)
			valleymap.RenderFigure20(out, suite)
		},
		"ablation": func() {
			valleymap.RenderAblationBreadth(out, opt)
			fmt.Fprintln(out)
			valleymap.RenderAblationWindow(out, opt)
		},
	}
	for _, n := range names {
		f, ok := run[n]
		if !ok {
			unknownExperiment(n)
		}
		f()
		if len(names) > 1 {
			fmt.Fprintln(out)
		}
	}
}

func renderJSON(names []string, opt valleymap.ExperimentOptions) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	envs := make([]experiments.Envelope, 0, len(names))
	for _, n := range names {
		env, err := experiments.JSONPayload(n, opt)
		if err != nil {
			unknownExperiment(n)
		}
		envs = append(envs, env)
	}
	var payload any = envs
	if len(envs) == 1 {
		payload = envs[0]
	}
	if err := enc.Encode(payload); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
