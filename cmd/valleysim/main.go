// Command valleysim runs one benchmark under one address mapping scheme
// on a chosen system configuration and prints every measured metric.
//
// Usage:
//
//	valleysim -bench MT -scheme PAE [-scale small] [-sms 12] [-mem conv|3d]
//	          [-seed 1] [-compare]
//
// With -compare, the run is repeated for all six schemes and speedups
// over BASE are reported.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"valleymap"
)

func main() {
	bench := flag.String("bench", "MT", "benchmark abbreviation (Table II), e.g. MT, LU, BFS")
	schemeName := flag.String("scheme", "PAE", "mapping scheme: BASE, PM, RMP, PAE, FAE, ALL")
	scale := flag.String("scale", "small", "trace scale: tiny, small, full")
	sms := flag.Int("sms", 12, "number of SMs (conventional memory)")
	mem := flag.String("mem", "conv", "memory organization: conv (GDDR5) or 3d (stacked)")
	seed := flag.Int64("seed", 1, "BIM seed for PAE/FAE/ALL")
	compare := flag.Bool("compare", false, "run all six schemes and compare")
	asJSON := flag.Bool("json", false, "emit the result as JSON (single-scheme mode)")
	flag.Parse()

	spec, ok := valleymap.WorkloadByAbbr(strings.ToUpper(*bench))
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown benchmark %q; known:", *bench)
		for _, s := range valleymap.AllWorkloads() {
			fmt.Fprintf(os.Stderr, " %s", s.Abbr)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(2)
	}

	sc, err := valleymap.ParseScale(*scale)
	if err != nil {
		badFlag(err)
	}
	scheme, err := valleymap.ParseScheme(*schemeName)
	if err != nil {
		badFlag(err)
	}
	if *sms < 1 {
		badFlag(fmt.Errorf("-sms %d: want at least 1 SM", *sms))
	}
	var cfg valleymap.SimConfig
	switch strings.ToLower(*mem) {
	case "conv":
		cfg = valleymap.ConventionalConfig(*sms)
	case "3d":
		cfg = valleymap.Stacked3DConfig()
	default:
		badFlag(fmt.Errorf("unknown memory organization %q (want conv or 3d)", *mem))
	}

	app := spec.Build(sc)
	if !*asJSON {
		fmt.Printf("%s (%s), %d kernels, %d requests, %s scale, system %s\n\n",
			spec.Name, spec.Abbr, len(app.Kernels), app.Requests(), sc, cfg.Name)
	}

	if *compare {
		var baseTime valleymap.Time
		fmt.Printf("%-5s %12s %9s %9s %9s %8s %8s %8s\n",
			"Map", "ExecTime", "Speedup", "RowHit", "DRAM(W)", "ChanPar", "BankPar", "NoC(cy)")
		for _, s := range valleymap.Schemes() {
			m := valleymap.NewMapper(s, cfg.Layout, *seed)
			r := valleymap.Simulate(app, m, cfg)
			if s == valleymap.BASE {
				baseTime = r.ExecTime
			}
			fmt.Printf("%-5s %12v %8.2fx %9.2f %9.2f %8.2f %8.2f %8.1f\n",
				s, r.ExecTime, float64(baseTime)/float64(r.ExecTime),
				r.DRAM.RowBufferHitRate(), r.DRAMPower.Total(),
				r.ChannelParallelism, r.BankParallelism, r.NoCAvgLatencyCycles)
		}
		return
	}

	m := valleymap.NewMapper(scheme, cfg.Layout, *seed)
	r := valleymap.Simulate(app, m, cfg)
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(r); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	fmt.Printf("mapper:            %v\n", m)
	fmt.Printf("execution time:    %v\n", r.ExecTime)
	fmt.Printf("instructions:      %d (%.2f GIPS)\n", r.Instructions, r.IPS()/1e9)
	fmt.Printf("transactions:      %d (from %d thread accesses)\n", r.Transactions, r.Requests)
	fmt.Printf("L1:                %d accesses, %.1f%% miss\n", r.L1.Accesses, 100*r.L1.MissRate())
	fmt.Printf("LLC:               %d accesses, %.1f%% miss (APKI %.2f, MPKI %.2f)\n",
		r.LLC.Accesses, 100*r.LLC.MissRate(), r.APKI, r.MPKI)
	fmt.Printf("NoC latency:       %.1f cycles/packet\n", r.NoCAvgLatencyCycles)
	fmt.Printf("parallelism:       LLC %.2f, channel %.2f, bank %.2f\n",
		r.LLCParallelism, r.ChannelParallelism, r.BankParallelism)
	fmt.Printf("DRAM:              %d reads, %d writes, %d activations, %.1f%% row-buffer hits\n",
		r.DRAM.Reads, r.DRAM.Writes, r.DRAM.Activations, 100*r.DRAM.RowBufferHitRate())
	fmt.Printf("DRAM power:        %.2f W (bg %.2f, act %.2f, rd %.2f, wr %.2f)\n",
		r.DRAMPower.Total(), r.DRAMPower.Background, r.DRAMPower.Activate,
		r.DRAMPower.Read, r.DRAMPower.Write)
	fmt.Printf("system power:      %.2f W (GPU %.2f W)\n", r.SystemW, r.GPUPowerW)
	fmt.Printf("perf/W:            %.3g insns/s/W\n", r.PerfPerW)
}

// badFlag reports an invalid flag value on one line and exits 2, the
// flag package's own code for bad usage.
func badFlag(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}
