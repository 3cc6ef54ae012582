// Designspace explores the mapping design space the way Section IV-B
// does: it hand-builds BIMs of the three strategy families (Remap, PM,
// Broad), checks their hardware cost, and races them against the packaged
// schemes on a slice of the valley suite.
//
// The point of the exercise is the paper's central claim: only mappings
// that gather entropy from *broad* bit ranges are robust across
// applications whose valleys sit in different places.
package main

import (
	"fmt"
	"math/rand"
	"os"

	"valleymap"
)

// customBroad builds a Broad-strategy BIM by hand: every channel/bank bit
// becomes the XOR of its own bit, two row bits and one more channel/bank
// bit — a cheap compromise between PM (2 inputs) and PAE (many inputs).
func customBroad(rng *rand.Rand) valleymap.BIM {
	m := valleymap.IdentityBIM(30)
	rowBits := []int{18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29}
	targets := []int{8, 9, 10, 11, 12, 13}
	for {
		cand := m
		for _, tb := range targets {
			mask := uint64(1) << uint(tb)
			mask |= 1 << uint(rowBits[rng.Intn(len(rowBits))])
			mask |= 1 << uint(rowBits[rng.Intn(len(rowBits))])
			mask |= 1 << uint(targets[rng.Intn(len(targets))])
			cand = cand.SetRow(tb, mask)
		}
		if cand.Invertible() {
			return cand
		}
	}
}

func main() {
	layout := valleymap.HynixGDDR5()
	cfg := valleymap.BaselineConfig()
	rng := rand.New(rand.NewSource(7))

	matrix := customBroad(rng)
	gates, depth := matrix.GateCost()
	fmt.Printf("custom Broad BIM: %d XOR gates, depth %d, invertible=%v\n\n",
		gates, depth, matrix.Invertible())
	custom, err := valleymap.NewCustomMapper("CUSTOM", layout, matrix)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// Candidate mappers: the packaged schemes plus the custom BIM,
	// wrapped as a scheme so that the analysis and the simulator run it
	// like any packaged one.
	benchmarks := []string{"MT", "LU", "SC", "SP"}
	chBank := []int{8, 9, 10, 11, 12, 13}
	var mappers []valleymap.Mapper
	for _, s := range []valleymap.Scheme{valleymap.BASE, valleymap.PM, valleymap.RMP, valleymap.PAE} {
		mappers = append(mappers, valleymap.NewMapper(s, layout, 1))
	}
	mappers = append(mappers, custom)

	fmt.Printf("%-6s", "bench")
	for _, m := range mappers {
		fmt.Printf(" %10s", m.Scheme())
	}
	fmt.Println()
	for _, abbr := range benchmarks {
		spec, _ := valleymap.WorkloadByAbbr(abbr)
		app := spec.Build(valleymap.ScaleTiny)
		fmt.Printf("%-6s", abbr)
		for _, m := range mappers {
			p := valleymap.AnalyzeApp(app, valleymap.AnalysisOptions{Transform: m.Map})
			fmt.Printf(" %10.2f", p.Min(chBank))
		}
		fmt.Println()
	}
	fmt.Println("\n(minimum channel/bank-bit entropy after mapping; higher is better)")

	// Simulated speedups over BASE for the same benchmarks: the
	// robustness story.
	fmt.Printf("\n%-6s", "bench")
	for _, m := range mappers[1:] {
		fmt.Printf(" %10s", m.Scheme())
	}
	fmt.Println()
	for _, abbr := range benchmarks {
		spec, _ := valleymap.WorkloadByAbbr(abbr)
		app := spec.Build(valleymap.ScaleTiny)
		base := valleymap.Simulate(app, mappers[0], cfg)
		fmt.Printf("%-6s", abbr)
		for _, m := range mappers[1:] {
			r := valleymap.Simulate(app, m, cfg)
			fmt.Printf(" %9.2fx", float64(base.ExecTime)/float64(r.ExecTime))
		}
		fmt.Println()
	}
	fmt.Println("\nPM helps only when the valley overlaps its fixed row-bit XORs;")
	fmt.Println("PAE's wide random XORs are robust across all four benchmarks.")
}
