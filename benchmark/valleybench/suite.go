package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"valleymap/internal/experiments"
	"valleymap/internal/gpusim"
	"valleymap/internal/mapping"
	"valleymap/internal/workload"
)

// suiteScale is the suite's trace scale: small passes take about a
// second, so a window holds enough of them for a steady median.
const suiteScale = "small"

// runSuite drives the paper-reproduction path: `experiments -exp suite`
// (10 valley workloads × 6 schemes, one core) as a subprocess, pass
// after pass. It loads gpusim and its substrate plus workload, and
// bypasses the service, HTTP, the result store, trace decode and entropy.
func runSuite(r *run) error {
	// The seed picks one of the paper's three BIM instances (Figure 19).
	bimSeed := 1 + (r.seed%3+3)%3
	if r.traced {
		return traceSuite(r, bimSeed)
	}
	// Set-up is a tiny-scale pass: it loads the binary and touches every
	// code path the timed passes use.
	for i := 0; i < r.setups; i++ {
		start := time.Now()
		if _, _, err := r.progs.suitePass("tiny", bimSeed); err != nil {
			return fmt.Errorf("warm-up pass: %w", err)
		}
		r.sample("setup_s", time.Since(start).Seconds())
	}
	var (
		ref    suiteDigest
		cpu    time.Duration
		maxRSS int64
	)
	elapsed := loop(1, r.window, func(int) {
		start := time.Now()
		out, st, err := r.progs.suitePass(r.scale(suiteScale), bimSeed)
		d := time.Since(start)
		if err == nil {
			err = ref.checkOutput(out)
		}
		r.attempt(err)
		if err != nil {
			return
		}
		r.sample("op_ms", ms(d))
		cpu += st.cpu
		maxRSS = max(maxRSS, st.maxRSSKB)
	})
	return r.finishEndToEnd(elapsed, cpu, maxRSS)
}

// suiteDigest holds the digest of the first pass's simulated results;
// every later pass must reproduce them bit for bit.
type suiteDigest struct{ sum string }

func (c *suiteDigest) checkOutput(out []byte) error {
	var env struct {
		Data experiments.SuiteJSON `json:"data"`
	}
	if err := json.Unmarshal(out, &env); err != nil {
		return fmt.Errorf("decoding suite output: %w", err)
	}
	return c.check(env.Data)
}

func (c *suiteDigest) check(s experiments.SuiteJSON) error {
	for _, sp := range workload.ValleySet() {
		for _, sc := range mapping.Schemes() {
			if res, ok := s.Results[sp.Abbr][sc]; !ok || res.Transactions <= 0 {
				return fmt.Errorf("suite pass lacks a simulated %s/%s cell", sp.Abbr, sc)
			}
		}
	}
	if hm := s.HMeanSpeedup[mapping.PAE]; !(hm > 1) {
		return fmt.Errorf("PAE harmonic-mean speedup %.4f is not above 1", hm)
	}
	b, err := json.Marshal(s.Results)
	if err != nil {
		return err
	}
	h := sha256.Sum256(b)
	sum := hex.EncodeToString(h[:])
	switch c.sum {
	case "":
		c.sum = sum
	case sum:
	default:
		return errors.New("suite pass differs from the first pass's simulated results")
	}
	return nil
}

// traceSuite runs the suite in-process: library passes for the first
// half of the window, then passes that time every layer call —
// workload build, and each cell's gpusim setup/kernels/collect stages —
// under a CPU profile. Finally it profiles MT/BASE and MT/PAE alone to
// name the layer that owns each cell's time.
func traceSuite(r *run, bimSeed int64) error {
	scale, err := parseScale(r.scale(suiteScale))
	if err != nil {
		return err
	}
	opt := experiments.Options{Scale: scale, Seed: bimSeed}
	experiments.ValleySuite(experiments.Options{Scale: workload.Tiny, Seed: bimSeed}) // warm-up
	var (
		ref  suiteDigest
		last experiments.SuiteResult
	)
	err = r.traceWindow(1, func(traced bool) func(int) {
		return func(int) {
			start := time.Now()
			if traced {
				last = r.tracedSuitePass(opt)
			} else {
				last = experiments.ValleySuite(opt)
			}
			r.sample(opSample(traced), ms(time.Since(start)))
			r.attempt(ref.check(experiments.SuitePayload(last)))
		}
	})
	if err != nil {
		return err
	}
	r.set("workload.build_ms", median(r.samplesOf("build_ms")))
	for _, st := range []string{gpusim.StageSetup, gpusim.StageKernels, gpusim.StageCollect} {
		r.set("gpusim."+st+"_ms", median(r.samplesOf("gpusim."+st)))
	}
	kernelNS := sum(r.samplesOf("gpusim."+gpusim.StageKernels)) * 1e6
	r.set("gpusim.ns_per_tx", kernelNS/sum(r.samplesOf("tx")))
	r.setSimStats(last)
	return r.attributeMT(scale, bimSeed)
}

// tracedSuitePass is experiments.ValleySuite with every layer call timed
// and recorded as a span.
func (r *run) tracedSuitePass(opt experiments.Options) experiments.SuiteResult {
	cfg := gpusim.Baseline()
	schemes := mapping.Schemes()
	out := experiments.SuiteResult{Schemes: schemes, Results: map[string]map[mapping.Scheme]gpusim.Result{}}
	runner := gpusim.NewRunner()
	pass := r.spans.open(0, "suite.pass")
	for _, spec := range workload.ValleySet() {
		start := time.Now()
		app := spec.Build(opt.Scale)
		r.sample("build_ms", ms(time.Since(start)))
		r.spans.add(pass, "workload.build "+spec.Abbr, start, time.Now())
		row := map[mapping.Scheme]gpusim.Result{}
		for _, sc := range schemes {
			m := mapping.MustNew(sc, cfg.Layout, mapping.Options{Seed: opt.Seed})
			cell := r.spans.open(pass, "gpusim.run "+spec.Abbr+"/"+string(sc))
			runner.SetStageObserver(func(stage string, d time.Duration) {
				now := time.Now()
				r.spans.add(cell, "gpusim."+stage, now.Add(-d), now)
				r.sample("gpusim."+stage, ms(d))
			})
			row[sc] = runner.Run(app, m, cfg)
			r.spans.end(cell)
			r.sample("tx", float64(row[sc].Transactions))
		}
		runner.SetStageObserver(nil)
		out.Workloads = append(out.Workloads, spec.Abbr)
		out.Results[spec.Abbr] = row
	}
	r.spans.end(pass)
	return out
}

// setSimStats reports the simulated component statistics of one suite
// pass: rates, latencies and parallelism averaged over the valley
// workloads, activations summed, for BASE and for PAE.
func (r *run) setSimStats(s experiments.SuiteResult) {
	var tx int64
	for _, row := range s.Results {
		for _, res := range row {
			tx += res.Transactions
		}
	}
	r.set("sim.transactions", float64(tx))
	r.set("sim.pae_hmean_speedup", s.HMeanSpeedup(mapping.PAE))
	r.set("sim.pae_dram_power_norm", s.NormalizedDRAMPower(mapping.PAE))
	for _, sc := range []mapping.Scheme{mapping.BASE, mapping.PAE} {
		var l1, llcMiss, noc, rowHit, ch, bank, act []float64
		for _, w := range s.Workloads {
			res := s.Results[w][sc]
			l1 = append(l1, experiments.FlattenResult(res).L1HitRate)
			llcMiss = append(llcMiss, res.LLC.MissRate())
			noc = append(noc, res.NoCAvgLatencyCycles)
			rowHit = append(rowHit, res.DRAM.RowBufferHitRate())
			ch = append(ch, res.ChannelParallelism)
			bank = append(bank, res.BankParallelism)
			act = append(act, float64(res.DRAM.Activations))
		}
		suffix := "." + string(sc)
		r.set("sim.l1.hit_rate"+suffix, mean(l1))
		r.set("sim.llc.miss_rate"+suffix, mean(llcMiss))
		r.set("sim.noc.latency_cycles"+suffix, mean(noc))
		r.set("sim.dram.row_hit_rate"+suffix, mean(rowHit))
		r.set("sim.dram.channel_par"+suffix, mean(ch))
		r.set("sim.dram.bank_par"+suffix, mean(bank))
		r.set("sim.dram.activations"+suffix, sum(act))
	}
}
