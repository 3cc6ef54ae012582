package experiments

import (
	"valleymap/internal/entropy"
	"valleymap/internal/gpusim"
	"valleymap/internal/mapping"
	"valleymap/internal/trace"
)

// JSON export of every experiment, for the cmd/experiments -format json
// flag and for services/scripts that consume sweep results
// machine-readably instead of scraping the text renderers.

// Envelope wraps one experiment's structured result with the experiment
// name and the options that produced it, so mixed result streams stay
// self-describing.
type Envelope struct {
	Experiment string      `json:"experiment"`
	Options    OptionsJSON `json:"options"`
	Data       any         `json:"data"`
}

// OptionsJSON is the normalized, human-readable form of Options.
type OptionsJSON struct {
	Scale     string `json:"scale"`
	Seed      int64  `json:"seed"`
	Window    int    `json:"window"`
	Bits      int    `json:"bits"`
	LineBytes int    `json:"line_bytes"`
}

func optionsJSON(o Options) OptionsJSON {
	o = o.withDefaults()
	return OptionsJSON{
		Scale:     o.Scale.String(),
		Seed:      o.Seed,
		Window:    entropy.DefaultWindow,
		Bits:      entropy.DefaultBits,
		LineBytes: trace.DefaultLineBytes,
	}
}

// SuiteJSON is SuiteResult plus the derived series the text renderers
// print (speedups, harmonic means, normalized power and time).
type SuiteJSON struct {
	Workloads           []string                                 `json:"workloads"`
	Schemes             []mapping.Scheme                         `json:"schemes"`
	Results             map[string]map[mapping.Scheme]ResultJSON `json:"results"`
	Speedups            map[mapping.Scheme][]float64             `json:"speedups"`
	HMeanSpeedup        map[mapping.Scheme]float64               `json:"hmean_speedup"`
	NormalizedDRAMPower map[mapping.Scheme]float64               `json:"normalized_dram_power"`
	NormalizedExecTime  map[mapping.Scheme]float64               `json:"normalized_exec_time"`
	NormalizedPerfPerW  map[mapping.Scheme][]float64             `json:"normalized_perf_per_watt"`
}

// ResultJSON flattens one simulation run to scalar metrics.
type ResultJSON struct {
	ExecTimePS          int64   `json:"exec_time_ps"`
	Instructions        int64   `json:"instructions"`
	Transactions        int64   `json:"transactions"`
	IPS                 float64 `json:"ips"`
	L1HitRate           float64 `json:"l1_hit_rate"`
	LLCHitRate          float64 `json:"llc_hit_rate"`
	NoCAvgLatencyCycles float64 `json:"noc_avg_latency_cycles"`
	LLCParallelism      float64 `json:"llc_parallelism"`
	ChannelParallelism  float64 `json:"channel_parallelism"`
	BankParallelism     float64 `json:"bank_parallelism"`
	RowBufferHitRate    float64 `json:"row_buffer_hit_rate"`
	DRAMPowerW          float64 `json:"dram_power_w"`
	GPUPowerW           float64 `json:"gpu_power_w"`
	SystemPowerW        float64 `json:"system_power_w"`
	PerfPerWatt         float64 `json:"perf_per_watt"`
	APKI                float64 `json:"apki"`
	MPKI                float64 `json:"mpki"`
}

// FlattenResult reduces one simulation run to scalar metrics — the
// single flattening shared by the experiments JSON export and the
// service's sweep cells, so the two vocabularies cannot drift.
func FlattenResult(r gpusim.Result) ResultJSON {
	l1, llc := 0.0, 0.0
	if r.L1.Accesses > 0 {
		l1 = float64(r.L1.Hits) / float64(r.L1.Accesses)
	}
	if r.LLC.Accesses > 0 {
		llc = float64(r.LLC.Hits) / float64(r.LLC.Accesses)
	}
	return ResultJSON{
		ExecTimePS:          int64(r.ExecTime),
		Instructions:        r.Instructions,
		Transactions:        r.Transactions,
		IPS:                 r.IPS(),
		L1HitRate:           l1,
		LLCHitRate:          llc,
		NoCAvgLatencyCycles: r.NoCAvgLatencyCycles,
		LLCParallelism:      r.LLCParallelism,
		ChannelParallelism:  r.ChannelParallelism,
		BankParallelism:     r.BankParallelism,
		RowBufferHitRate:    r.DRAM.RowBufferHitRate(),
		DRAMPowerW:          r.DRAMPower.Total(),
		GPUPowerW:           r.GPUPowerW,
		SystemPowerW:        r.SystemW,
		PerfPerWatt:         r.PerfPerW,
		APKI:                r.APKI,
		MPKI:                r.MPKI,
	}
}

// SuitePayload converts a finished sweep to its JSON form.
func SuitePayload(s SuiteResult) SuiteJSON {
	out := SuiteJSON{
		Workloads:           s.Workloads,
		Schemes:             s.Schemes,
		Results:             map[string]map[mapping.Scheme]ResultJSON{},
		Speedups:            map[mapping.Scheme][]float64{},
		HMeanSpeedup:        map[mapping.Scheme]float64{},
		NormalizedDRAMPower: map[mapping.Scheme]float64{},
		NormalizedExecTime:  map[mapping.Scheme]float64{},
		NormalizedPerfPerW:  map[mapping.Scheme][]float64{},
	}
	for abbr, row := range s.Results {
		jr := map[mapping.Scheme]ResultJSON{}
		for sc, r := range row {
			jr[sc] = FlattenResult(r)
		}
		out.Results[abbr] = jr
	}
	for _, sc := range s.Schemes {
		out.Speedups[sc] = s.SpeedupSeries(sc)
		out.HMeanSpeedup[sc] = s.HMeanSpeedup(sc)
		out.NormalizedDRAMPower[sc] = s.NormalizedDRAMPower(sc)
		out.NormalizedExecTime[sc] = s.NormalizedExecTime(sc)
		out.NormalizedPerfPerW[sc] = s.NormalizedPerfPerWatt(sc)
	}
	return out
}

// JSONPayload runs the named experiment and returns its envelope. Names
// match the cmd/experiments -exp values (see Names).
func JSONPayload(name string, opt Options) (Envelope, error) {
	out, err := Run(name, opt)
	if err != nil {
		return Envelope{}, err
	}
	return envelope(name, opt, out), nil
}

func envelope(name string, opt Options, out Output) Envelope {
	return Envelope{Experiment: name, Options: optionsJSON(opt), Data: out.Data}
}
