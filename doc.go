// Package valleymap is a complete reimplementation of the system described
// in "Get Out of the Valley: Power-Efficient Address Mapping for GPUs"
// (Liu, Zhao, Jahre, Wang, Wang, Luo, Eeckhout — ISCA 2018).
//
// GPU memory systems spread requests over channels and banks using a
// handful of physical address bits. GPU-compute workloads organize threads
// in multi-dimensional grids that can align pathologically with that
// structure, leaving "entropy valleys" — address bits that never change —
// exactly where the hardware needs variation. The paper (and this library)
// addresses that in three parts:
//
//   - A window-based entropy metric quantifying the information content of
//     every address bit across the memory requests that plausibly coexist
//     in the memory system (AnalyzeApp, Profile).
//
//   - The Binary Invertible Matrix (BIM) abstraction over GF(2): every
//     one-to-one AND/XOR address transform is a BIM, realizable in
//     hardware as a tree of XOR gates (BIM, NewMapper).
//
//   - The PAE / FAE / ALL mapping schemes, which harvest entropy from wide
//     bit ranges and concentrate it into the channel and bank bits,
//     compared against BASE (Hynix), PM (permutation-based mapping) and
//     RMP (static remap) baselines.
//
// Because the paper's evaluation needs a GPU memory subsystem, the module
// also contains an event-driven simulator — SMs with warps, coalescer and
// L1 MSHRs, a crossbar NoC, sliced LLC, FR-FCFS open-page GDDR5 and
// 3D-stacked DRAM, and a Micron-methodology power model — plus synthetic
// versions of the paper's 16 benchmarks (Simulate, Workloads).
//
// # Streaming pipeline
//
// The entropy analysis is a one-pass computation, and the profiling hot
// path runs as a stream of request batches with kernel/TB boundaries
// rather than materialized traces:
//
//	generator / CSV decode → coalesce → online windowed accumulator → Profile → advise
//
// Workload generators stream natively (WorkloadSpec.Source; Build is an
// adapter that drains the stream), CSV traces decode incrementally with
// a running SHA-256 (StreamTraceCSV), coalescing keeps only the current
// warp window (CoalesceTraceStream), and AnalyzeSource/AnalyzeStream
// fold batches into the same Profile AnalyzeApp produces — bit-identical,
// at O(window × bits) memory regardless of trace length, in one
// sequential pass. valleyd's /v1/profile serves trace uploads through
// this pipeline, which is why its body cap bounds bandwidth rather than
// memory.
//
// Quick start:
//
//	app, _ := valleymap.WorkloadByAbbr("MT")
//	trace := app.Build(valleymap.ScaleSmall)
//	prof := valleymap.AnalyzeApp(trace, valleymap.AnalysisOptions{})
//	fmt.Println(prof.PerBit[8:14]) // the channel/bank entropy valley
//
//	mapper := valleymap.NewMapper(valleymap.PAE, valleymap.HynixGDDR5(), 1)
//	res := valleymap.Simulate(trace, mapper, valleymap.BaselineConfig())
//	fmt.Println(res.ExecTime, res.DRAMPower.Total())
//
// Every table and figure of the paper is regenerated by the benchmarks in
// bench_test.go and by cmd/experiments (use -format json for
// machine-readable results). The valleyd daemon (cmd/valleyd) serves
// profiling, mapping advice and simulation sweeps over HTTP; see
// README.md for the package map and service usage.
package valleymap
