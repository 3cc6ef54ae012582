package service

import (
	"sort"

	"valleymap/internal/bim"
	"valleymap/internal/layout"
	"valleymap/internal/mapping"
	"valleymap/internal/obs"
	"valleymap/internal/trace"
)

// AdviseRequest asks for a mapping recommendation. The trace inputs
// mirror ProfileRequest; Schemes/Seeds narrow the candidate set
// (defaults: PAE/FAE/ALL × seeds 1..3, the paper's BIM-1..BIM-3).
type AdviseRequest struct {
	ProfileRequest
	Schemes []string `json:"schemes,omitempty"`
	Seeds   []int64  `json:"seeds,omitempty"`
}

// Candidate is one evaluated scheme × seed pair.
type Candidate struct {
	Scheme      string     `json:"scheme"`
	Seed        int64      `json:"seed"`
	MeanChannel float64    `json:"mean_channel_entropy"`
	MeanBank    float64    `json:"mean_bank_entropy"`
	ChannelGain float64    `json:"channel_entropy_gain"`
	BankGain    float64    `json:"bank_entropy_gain"`
	Gain        float64    `json:"gain"`
	XORGates    int        `json:"xor_gates"`
	Depth       int        `json:"xor_depth"`
	BIM         bim.Matrix `json:"bim"`
}

// AdviseResult recommends a BIM for a trace.
type AdviseResult struct {
	Base        *ProfileResult `json:"base"`
	Recommended Candidate      `json:"recommended"`
	Candidates  []Candidate    `json:"candidates"`
}

// Advise profiles the trace under each candidate mapping and recommends
// the one with the highest channel+bank entropy gain; within 0.01 of
// the best, the cheapest XOR tree wins (hardware-minimal tiebreak).
func (s *Service) Advise(req AdviseRequest) (*AdviseResult, error) {
	if req.Scheme != "" {
		return nil, badRequestf("advise profiles the unmapped trace; leave scheme empty")
	}
	if req.Seed != 0 {
		return nil, badRequestf("advise evaluates candidates per seed; use seeds instead of seed")
	}
	schemes := []mapping.Scheme{mapping.PAE, mapping.FAE, mapping.ALL}
	if len(req.Schemes) > 0 {
		schemes = schemes[:0]
		for _, name := range req.Schemes {
			sc, err := mapping.ParseScheme(name)
			if err != nil {
				return nil, badRequestf("unknown scheme %q (want one of %v)", name, mapping.Schemes())
			}
			if sc == mapping.BASE {
				return nil, badRequestf("BASE is the identity mapping; it cannot be a candidate")
			}
			schemes = append(schemes, sc)
		}
	}
	seeds := []int64{1, 2, 3}
	if len(req.Seeds) > 0 {
		for _, seed := range req.Seeds {
			// Seed 0 means "default" (1) to /v1/profile, so a candidate
			// under it would not match that endpoint's profile.
			if seed <= 0 {
				return nil, badRequestf("seeds must be positive, got %d", seed)
			}
		}
		seeds = req.Seeds
	}

	opt, err := req.options()
	if err != nil {
		return nil, err
	}
	in, err := s.resolveInput(req.ProfileRequest)
	if err != nil {
		return nil, err
	}
	defer in.close()
	// Every candidate re-profiles the same trace, and the cache keys are
	// the ones /v1/profile uses, so advise and profile share entries.
	if err := in.replayable(&s.metrics.stageNative); err != nil {
		return nil, err
	}
	base, _, err := s.profile(in, opt)
	if err != nil {
		return nil, err
	}

	l := layout.HynixGDDR5()
	ch, bank := l.FieldBits(layout.Channel), l.FieldBits(layout.Bank)
	var cands []Candidate
	for _, sc := range schemes {
		// Deterministic schemes (PM, RMP) ignore the seed: evaluate once
		// under a fixed seed so repeat calls with different seed lists
		// share one cache entry, and report Seed 0 ("not applicable").
		scSeeds := seeds
		if sc == mapping.PM || sc == mapping.RMP {
			scSeeds = []int64{1}
		}
		for _, seed := range scSeeds {
			copt := opt
			copt.scheme, copt.seed = sc, seed
			prof, _, err := s.profile(in, copt)
			if err != nil {
				return nil, err
			}
			m, err := mapping.New(sc, l, mapping.Options{Seed: seed})
			if err != nil {
				return nil, err
			}
			gates, depth := m.GateCost()
			candSeed := seed
			if sc == mapping.PM || sc == mapping.RMP {
				candSeed = 0
			}
			cand := Candidate{
				Scheme:      string(sc),
				Seed:        candSeed,
				MeanChannel: prof.MeanChannel,
				MeanBank:    prof.MeanBank,
				ChannelGain: prof.MeanChannel - base.MeanChannel,
				BankGain:    prof.MeanBank - base.MeanBank,
				XORGates:    gates,
				Depth:       depth,
				BIM:         m.Matrix(),
			}
			nCh, nBank := float64(len(ch)), float64(len(bank))
			cand.Gain = (cand.ChannelGain*nCh + cand.BankGain*nBank) / (nCh + nBank)
			cands = append(cands, cand)
		}
	}
	// Rank by gain; within 0.01 of the top gain, the cheapest XOR tree
	// wins (always measured against cands[0], so near-ties cannot chain
	// the recommendation further than 0.01 below the best).
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].Gain > cands[j].Gain })
	best := cands[0]
	for _, c := range cands[1:] {
		if cands[0].Gain-c.Gain <= 0.01 && c.XORGates < best.XORGates {
			best = c
		}
	}
	return &AdviseResult{Base: base, Recommended: best, Candidates: cands}, nil
}

// replayable readies in for Advise's many passes. A one-shot body (a
// CSV trace_file) is drained into memory now, as its key is its hash;
// a workload or embedded CSV is materialized by the first cache miss's
// pass. An mmapped VTRC file is already in memory.
func (in *profileInput) replayable(native *stageSet) error {
	if _, mapped := in.src.(*trace.MmapSource); mapped {
		return nil
	}
	a := &appOnce{src: in.src, decode: in.stages.decode}
	if in.id == "" {
		if a.Stream(); a.err != nil {
			return in.fail(a.err)
		}
		in.drained()
	}
	in.src, in.stages = a, native
	return nil
}

// appOnce is a restartable source that materializes src on its first
// pass, timing that pass as src's decode, and replays every pass from
// the in-memory copy.
type appOnce struct {
	src    trace.Source
	decode *obs.Histogram
	app    *trace.App
	err    error
}

func (a *appOnce) Info() trace.SourceInfo { return a.src.Info() }

func (a *appOnce) Stream() trace.Stream {
	if a.app == nil && a.err == nil {
		st := trace.NewTimedStream(a.src.Stream(), nil, a.decode.ObserveDuration)
		a.app, a.err = trace.CollectStream(st, a.src.Info())
	}
	if a.err != nil {
		return a.src.Stream() // re-reads src, so the pass reports the error
	}
	return trace.AppSource(a.app).Stream()
}
