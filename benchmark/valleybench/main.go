// Command valleybench is valleymap's end-to-end and per-layer benchmark.
//
// Usage, from the repository root (benchmark/run.sh builds and runs it):
//
//	valleybench --workload suite|sweep-cold|sweep-warm|profile-upload
//	            [--seed N] [--seconds S] [--trace 0|1]
//	valleybench trace --workload W [--seed N] [--seconds S]
//	valleybench compare PARENT_RUNS CHANGE_RUNS
//
// With --trace 0 it builds cmd/valleyd and cmd/experiments from the
// checkout, drives the workload against those binaries with tracing off
// and prints every end-to-end metric. With --trace 1 (or the trace
// subcommand) it drives the same workload in-process, timing calls into
// each layer's public functions and CPU-profiling the run, and prints
// the per-layer metrics instead. Either way the last line of standard
// output is one JSON object {"correct","attempted","failed","metrics"},
// and a run record is written under benchmark/runs/.
//
// compare is the regression gate over two sets of run records; see
// compare.go.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// metricDef names one reported metric. owners lists the workloads that
// measure it; nil means every workload does. A workload that does not
// own a per-layer metric reports 0 for it: it bypasses that layer.
type metricDef struct {
	name, unit string
	owners     []string
}

func (d metricDef) ownedBy(workload string) bool {
	return d.owners == nil || slices.Contains(d.owners, workload)
}

// endToEnd are the metrics a user of valleymap sees, printed by every
// untraced run. An operation is one suite pass, one sweep or one upload,
// depending on the workload.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "op_ms_p50", unit: "ms"},
	{name: "op_ms_tail", unit: "ms"},
	{name: "ops_per_s", unit: "1/s"},
	{name: "cpu_ms_per_op", unit: "ms"},
	{name: "rss_peak_mb", unit: "MB"},
}

// cpuLayers are the buckets of the CPU-profile attribution: this
// repository's internal packages, then the standard library by role
// (see layerOf) and everything else.
var cpuLayers = []string{
	"sim", "gpu", "noc", "cache", "dram", "power", "metrics", "layout", "bim",
	"mapping", "gpusim", "workload", "trace", "entropy", "service", "obs",
	"runtime", "net", "json", "bytes", "crypto", "syscall", "other",
}

// perLayer are the metrics of a traced run.
var perLayer = func() []metricDef {
	suite := []string{"suite"}
	cold := []string{"sweep-cold"}
	warm := []string{"sweep-warm"}
	upload := []string{"profile-upload"}
	defs := []metricDef{
		{"workload.build_ms", "ms", suite},
		{"gpusim.setup_ms", "ms", suite},
		{"gpusim.kernels_ms", "ms", suite},
		{"gpusim.collect_ms", "ms", suite},
		{"gpusim.ns_per_tx", "ns/tx", suite},
		{"sim.transactions", "count", suite},
		{"sim.pae_hmean_speedup", "x", suite},
		{"sim.pae_dram_power_norm", "ratio", suite},
	}
	for _, sc := range []string{"BASE", "PAE"} {
		defs = append(defs,
			metricDef{"sim.l1.hit_rate." + sc, "ratio", suite},
			metricDef{"sim.llc.miss_rate." + sc, "ratio", suite},
			metricDef{"sim.noc.latency_cycles." + sc, "cycles", suite},
			metricDef{"sim.dram.row_hit_rate." + sc, "ratio", suite},
			metricDef{"sim.dram.channel_par." + sc, "channels", suite},
			metricDef{"sim.dram.bank_par." + sc, "banks", suite},
			metricDef{"sim.dram.activations." + sc, "count", suite},
		)
	}
	defs = append(defs,
		metricDef{"service.queue_wait_ms", "ms", cold},
		metricDef{"service.trace_build_ms", "ms", cold},
		metricDef{"service.engine_run_ms", "ms", cold},
		metricDef{"service.cache_put_ms", "ms", cold},
		metricDef{"service.sweep_self_ms", "ms", cold},
		metricDef{"service.pool_busy_ratio", "ratio", cold},
		metricDef{"http.first_cell_ms", "ms", cold},
		metricDef{"cache.miss_ratio", "ratio", cold},
		metricDef{"cache.spill_writes", "count", cold},
		metricDef{"cache.spill_drops", "count", cold},

		metricDef{"cache.hit_us.mem", "us", warm},
		metricDef{"cache.hit_us.disk", "us", warm},
		metricDef{"cache.disk_hit_ratio", "ratio", warm},
		metricDef{"service.warm_sweep_self_ms", "ms", warm},
		metricDef{"http.sweep_self_ms", "ms", warm},

		metricDef{"trace.decode_ns_per_row.csv", "ns/row", upload},
		metricDef{"trace.decode_ns_per_row.vtrc", "ns/row", upload},
		metricDef{"trace.coalesce_ns_per_row", "ns/row", upload},
		metricDef{"trace.coalesce_ratio", "ratio", upload},
		metricDef{"entropy.fold_ns_per_row", "ns/row", upload},
		metricDef{"bim.map_ns_per_addr", "ns/addr", upload},
		metricDef{"service.profile_self_ms", "ms", upload},
		metricDef{"http.profile_self_ms", "ms", upload},
		metricDef{"cache.profile_hit_ratio", "ratio", upload},
	)
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{name: "cpu." + l, unit: "share"})
	}
	return append(defs, metricDef{name: "trace_overhead", unit: "x"})
}()

// workloads maps each workload to the function that runs it. README.md
// records why each exists and which layers it loads and bypasses.
var workloads = map[string]func(*run) error{
	"suite":          runSuite,
	"sweep-cold":     runSweepCold,
	"sweep-warm":     runSweepWarm,
	"profile-upload": runProfileUpload,
}

// config is one run's settings.
type config struct {
	root     string
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	// tiny runs every workload at tiny scale, so one operation of each
	// takes well under a second (the smoke test).
	tiny bool
	// setups is how many times the workload's set-up runs; setup_s is
	// their median.
	setups  int
	runsDir string
	// progs reaches the system under test; nil builds the binaries for
	// untraced runs and runs the library in-process for traced ones.
	progs *programs
}

// run is the state of one benchmark run.
type run struct {
	config
	rng   *rand.Rand // input generation; used only before clients start
	dir   string     // run record directory
	spans spanLog

	mu        sync.Mutex
	attempted int
	failed    int
	errs      []string
	samples   map[string][]float64
	values    map[string]float64
}

// attempt counts one operation; a non-nil err counts it as failed.
func (r *run) attempt(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		r.noteLocked(err)
	}
}

// failVerified counts an operation that completed but whose output
// failed a later correctness check.
func (r *run) failVerified(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	r.noteLocked(err)
}

func (r *run) noteLocked(err error) {
	if len(r.errs) < 20 {
		r.errs = append(r.errs, err.Error())
	}
}

func (r *run) sample(name string, v float64) {
	r.mu.Lock()
	r.samples[name] = append(r.samples[name], v)
	r.mu.Unlock()
}

func (r *run) samplesOf(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]float64(nil), r.samples[name]...)
}

func (r *run) set(name string, v float64) {
	r.mu.Lock()
	r.values[name] = v
	r.mu.Unlock()
}

// loop runs op on clients concurrent callers, each sending its next
// operation only after the previous one returned (a closed loop), until
// window has passed; every caller runs at least one operation. It
// returns the time from the start to the last completion.
func loop(clients int, window time.Duration, op func(client int)) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for first := true; first || time.Since(start) < window; first = false {
				op(c)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// opSample names the latency series of untraced and of traced
// operations.
func opSample(traced bool) string {
	if traced {
		return "traced_ms"
	}
	return "op_ms"
}

// traceWindow runs a traced run's window: op(false) for the first half,
// then op(true) under the CPU profile, and sets trace_overhead from the
// two halves' median operation times.
func (r *run) traceWindow(clients int, op func(traced bool) func(int)) error {
	loop(clients, r.window/2, op(false))
	if err := r.profiled(func() { loop(clients, r.window/2, op(true)) }); err != nil {
		return err
	}
	r.set("trace_overhead", median(r.samplesOf(opSample(true)))/median(r.samplesOf(opSample(false))))
	return nil
}

// metric is one printed metric value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// execute runs one workload and writes its run record.
func execute(cfg config) (result, error) {
	drive, ok := workloads[cfg.workload]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.progs == nil {
		if cfg.traced {
			cfg.progs = inProcessPrograms()
		} else {
			bin := filepath.Join(cfg.root, ".bench_build", "bin")
			if err := buildBinaries(cfg.root, bin); err != nil {
				return result{}, err
			}
			cfg.progs = execPrograms(bin)
		}
	}
	if cfg.traced {
		cfg.setups = 1 // setup_s is an end-to-end metric
	}
	started := time.Now()
	h := hostInfo(cfg.root)
	dir, err := makeRunDir(cfg.runsDir, started, h.Commit)
	if err != nil {
		return result{}, err
	}
	r := &run{
		config:  cfg,
		rng:     rand.New(rand.NewSource(cfg.seed)),
		dir:     dir,
		samples: map[string][]float64{},
		values:  map[string]float64{},
	}
	if err := drive(r); err != nil {
		return result{}, err
	}
	res, err := r.report()
	if err != nil {
		return result{}, err
	}
	return res, writeRecord(r, h, started, res)
}

// report assembles the printed metrics: every end-to-end metric for an
// untraced run, every per-layer metric for a traced one.
func (r *run) report() (result, error) {
	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	known := map[string]bool{}
	m := make(map[string]metric, len(defs))
	for _, d := range defs {
		known[d.name] = true
		v, ok := r.values[d.name]
		if !ok && d.ownedBy(r.workload) {
			return result{}, fmt.Errorf("workload %s did not measure %s", r.workload, d.name)
		}
		m[d.name] = metric{Value: v, Unit: d.unit}
	}
	for name := range r.values {
		if !known[name] {
			return result{}, fmt.Errorf("workload %s measured undeclared metric %s", r.workload, name)
		}
	}
	return result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   m,
	}, nil
}

// scale returns s, or tiny when the run is shrunk to tiny scale.
func (r *run) scale(s string) string {
	if r.tiny {
		return "tiny"
	}
	return s
}

// finishEndToEnd sets the end-to-end metrics from the operation samples
// ("op_ms", "setup_s"), the measured span, and the program's CPU time
// over it and peak resident set.
func (r *run) finishEndToEnd(elapsed, cpu time.Duration, maxRSSKB int64) error {
	ops := r.samplesOf("op_ms")
	if len(ops) == 0 {
		return fmt.Errorf("no %s operation succeeded: %v", r.workload, r.errs)
	}
	r.set("setup_s", median(r.samplesOf("setup_s")))
	r.set("op_ms_p50", median(ops))
	r.set("op_ms_tail", percentile(ops, tailPercentile(len(ops))))
	r.set("ops_per_s", float64(len(ops))/elapsed.Seconds())
	r.set("cpu_ms_per_op", ms(cpu)/float64(len(ops)))
	r.set("rss_peak_mb", float64(maxRSSKB)/1024)
	return nil
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func main() {
	args := os.Args[1:]
	if len(args) > 0 && args[0] == "compare" {
		os.Exit(compareMain(args[1:], os.Stdout, os.Stderr))
	}
	traced := false
	if len(args) > 0 && args[0] == "trace" {
		traced = true
		args = args[1:]
	}
	fs := flag.NewFlagSet("valleybench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input seed: BIM seeds and request order derive from it")
	seconds := fs.Float64("seconds", 25, "measurement window in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics against the built binaries; 1: per-layer metrics, in-process")
	runs := fs.String("runs", filepath.Join("benchmark", "runs"), "run-record directory")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "valleybench: --trace must be 0 or 1, got %d\n", *trace)
		os.Exit(2)
	}
	if *seconds < 0 || fs.NArg() > 0 {
		fs.Usage()
		os.Exit(2)
	}
	cfg := config{
		root:     ".",
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		traced:   traced || *trace == 1,
		setups:   3,
		runsDir:  *runs,
	}
	res, err := execute(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "valleybench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "valleybench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
