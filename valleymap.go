package valleymap

import (
	"io"
	"log/slog"

	"valleymap/internal/bim"
	"valleymap/internal/entropy"
	"valleymap/internal/experiments"
	"valleymap/internal/gpusim"
	"valleymap/internal/layout"
	"valleymap/internal/mapping"
	"valleymap/internal/obs"
	"valleymap/internal/power"
	"valleymap/internal/service"
	"valleymap/internal/sim"
	"valleymap/internal/trace"
	"valleymap/internal/workload"
)

// ---------------------------------------------------------------------
// Address layouts (Figure 4 and the 3D-stacked variant)
// ---------------------------------------------------------------------

// Layout describes how a physical address decomposes into DRAM
// coordinates.
type Layout = layout.Layout

// Field identifies one DRAM coordinate (Row, Bank, Channel, ...).
type Field = layout.Field

// DRAM coordinate fields.
const (
	FieldBlock   = layout.Block
	FieldColumn  = layout.Column
	FieldChannel = layout.Channel
	FieldBank    = layout.Bank
	FieldRow     = layout.Row
	FieldVault   = layout.Vault
)

// HynixGDDR5 returns the baseline 30-bit Hynix GDDR5 address map
// (Figure 4).
func HynixGDDR5() Layout { return layout.HynixGDDR5() }

// Stacked3D returns the HMC-style stack/vault/bank address map of the
// Section VI-D sensitivity study.
func Stacked3D() Layout { return layout.Stacked3D() }

// ---------------------------------------------------------------------
// BIMs and mapping schemes (Section IV)
// ---------------------------------------------------------------------

// BIM is a Binary Invertible Matrix over GF(2) — the paper's unified
// representation of AND/XOR address mappings.
type BIM = bim.Matrix

// IdentityBIM returns the n×n identity matrix.
func IdentityBIM(n int) BIM { return bim.Identity(n) }

// NewBIM builds a matrix from explicit rows (row i = input mask of output
// bit i).
func NewBIM(n int, rows []uint64) BIM { return bim.New(n, rows) }

// Scheme names an address mapping strategy.
type Scheme = mapping.Scheme

// The six schemes of the evaluation.
const (
	BASE = mapping.BASE
	PM   = mapping.PM
	RMP  = mapping.RMP
	PAE  = mapping.PAE
	FAE  = mapping.FAE
	ALL  = mapping.ALL
)

// Schemes returns all six schemes in the paper's order.
func Schemes() []Scheme { return mapping.Schemes() }

// ParseScheme resolves a case-insensitive scheme name such as "pae".
func ParseScheme(name string) (Scheme, error) { return mapping.ParseScheme(name) }

// Mapper applies one scheme's BIM to physical addresses.
type Mapper = mapping.Mapper

// NewMapper constructs a mapper; seed selects the random BIM instance for
// PAE/FAE/ALL (seeds 1..3 are the paper's BIM-1..BIM-3).
func NewMapper(s Scheme, l Layout, seed int64) Mapper {
	return mapping.MustNew(s, l, mapping.Options{Seed: seed})
}

// NewRMPMapper builds the Remap scheme from a measured suite-average
// entropy profile (nil uses the paper's default bit choice).
func NewRMPMapper(l Layout, avgEntropy []float64) Mapper {
	return mapping.NewRMP(l, avgEntropy)
}

// NewCustomMapper wraps a user-built BIM as a mapping scheme.
func NewCustomMapper(name Scheme, l Layout, m BIM) (Mapper, error) {
	return mapping.NewCustom(name, l, m)
}

// ---------------------------------------------------------------------
// Traces and workloads (Table II)
// ---------------------------------------------------------------------

// Trace types.
type (
	App     = trace.App
	Kernel  = trace.Kernel
	TB      = trace.TB
	Request = trace.Request
	Kind    = trace.Kind
)

// Request kinds.
const (
	Read  = trace.Read
	Write = trace.Write
)

// ---------------------------------------------------------------------
// Streaming traces (the one-pass profiling pipeline)
// ---------------------------------------------------------------------

// Streaming trace types: a TraceStream yields chunked request batches
// with explicit kernel/TB boundaries; a TraceSource restarts streams
// over the same trace. See internal/trace's stream conventions.
type (
	TraceBatch      = trace.Batch
	TraceStream     = trace.Stream
	TraceSource     = trace.Source
	TraceSourceInfo = trace.SourceInfo
	TraceKernelInfo = trace.KernelInfo
	// CSVTraceStream is a single-shot streaming CSV decoder folding the
	// canonical record-stream SHA-256 as it decodes.
	CSVTraceStream = trace.CSVStream
	// MmapTraceSource serves a VTRC file as zero-copy batches over a
	// read-only memory mapping; restartable and fully validated at open.
	MmapTraceSource = trace.MmapSource
)

// NewAppSource adapts a materialized trace into a restartable streaming
// source (batches alias the App's memory; do not mutate them).
func NewAppSource(app *App) TraceSource { return trace.AppSource(app) }

// CollectTrace drains a streaming source into a materialized trace.
func CollectTrace(src TraceSource) (*App, error) { return trace.Collect(src) }

// CoalesceTraceStream coalesces a request stream on the fly, keeping
// only the current warp window in memory (streaming Coalesce).
func CoalesceTraceStream(st TraceStream, lineBytes int) TraceStream {
	return trace.CoalesceStream(st, lineBytes)
}

// StreamTraceCSV starts a streaming decode of a trace in the package's
// CSV format (see WriteTraceCSV). The returned stream is single-shot
// and exposes the content hash once fully drained.
func StreamTraceCSV(r io.Reader) *CSVTraceStream { return trace.NewCSVStream(r) }

// OpenTraceMmap maps an on-disk VTRC binary trace and serves it as a
// restartable zero-copy source (validated end to end at open; a
// read-everything fallback keeps non-mmap platforms working).
func OpenTraceMmap(path string) (*MmapTraceSource, error) { return trace.OpenMmap(path) }

// OpenTraceFile opens an on-disk trace in either container format,
// sniffing the VTRC magic: binary files are mmapped, CSV files stream.
// Call the returned release func when done with the trace.
func OpenTraceFile(path string) (TraceSource, func() error, error) { return trace.OpenFile(path) }

// TraceCanonicalHash drains one pass of a source and returns the
// canonical record-stream digest — the format-independent identity the
// service's content-addressed caches key on.
func TraceCanonicalHash(src TraceSource) (string, error) { return trace.CanonicalHash(src) }

// WorkloadSpec describes one benchmark of the study.
type WorkloadSpec = workload.Spec

// Scale selects trace size.
type Scale = workload.Scale

// Trace scales.
const (
	ScaleTiny  = workload.Tiny
	ScaleSmall = workload.Small
	ScaleFull  = workload.Full
)

// ParseScale resolves a case-insensitive scale name: tiny, small or
// full. An empty name means small.
func ParseScale(name string) (Scale, error) { return workload.ParseScale(name) }

// Workloads returns the 16 benchmarks of Table II.
func Workloads() []WorkloadSpec { return workload.Catalog() }

// AllWorkloads returns the benchmarks plus the two standalone kernels of
// Figure 5.
func AllWorkloads() []WorkloadSpec { return workload.All() }

// ValleyWorkloads returns the ten entropy-valley benchmarks.
func ValleyWorkloads() []WorkloadSpec { return workload.ValleySet() }

// NonValleyWorkloads returns the six non-valley benchmarks.
func NonValleyWorkloads() []WorkloadSpec { return workload.NonValleySet() }

// WorkloadByAbbr finds a workload by Table II abbreviation.
func WorkloadByAbbr(abbr string) (WorkloadSpec, bool) { return workload.ByAbbr(abbr) }

// ---------------------------------------------------------------------
// Window-based entropy analysis (Section III)
// ---------------------------------------------------------------------

// Profile is a per-bit entropy distribution.
type Profile = entropy.Profile

// ValleyLow and ValleyHigh are the valley-classification thresholds of
// Figure 5, valleyd and cmd/entropymap: pass them to
// Profile.ChannelBankValley. A channel or bank bit at or below ValleyLow
// is dead, and a valley counts only when a higher bit reaches
// ValleyHigh.
const (
	ValleyLow  = entropy.DefaultLow
	ValleyHigh = entropy.DefaultHigh
)

// AnalysisOptions parameterizes AnalyzeApp.
type AnalysisOptions struct {
	// Window is the number of concurrently executing TBs w (0 = 12, the
	// baseline SM count, per the paper's heuristic).
	Window int
	// Bits is the physical address width (0 = 30).
	Bits int
	// LineBytes is the coalescing granularity (0 = 128). Set negative
	// to analyze raw per-thread requests without coalescing.
	LineBytes int
	// Transform optionally maps addresses before profiling (e.g. a
	// Mapper's Map method, to obtain Figure 10-style post-mapping
	// profiles). The analyzers call it sequentially, on the caller's
	// goroutine, in one pass over the trace.
	Transform func(uint64) uint64
}

// AnalyzeApp computes the window-based entropy distribution of an
// application trace (Equations 1–2, aggregated per kernel and weighted by
// request counts). It is the materialized reference path; AnalyzeSource
// and AnalyzeStream produce bit-identical profiles one batch at a time.
func AnalyzeApp(app *App, opt AnalysisOptions) Profile {
	opt = opt.withDefaults()
	a := app
	if opt.LineBytes > 0 {
		a = trace.CoalesceApp(app, opt.LineBytes)
	}
	var f entropy.Transform
	if opt.Transform != nil {
		f = opt.Transform
	}
	return entropy.AppProfile(a, opt.Window, opt.Bits, f)
}

func (opt AnalysisOptions) withDefaults() AnalysisOptions {
	if opt.Window == 0 {
		opt.Window = entropy.DefaultWindow
	}
	if opt.Bits == 0 {
		opt.Bits = entropy.DefaultBits
	}
	if opt.LineBytes == 0 {
		opt.LineBytes = trace.DefaultLineBytes
	}
	return opt
}

// AnalyzeSource profiles a streaming trace source end to end —
// generate/decode → coalesce → online windowed profile — without ever
// materializing the trace: memory is O(window × bits) plus one batch,
// however long the trace runs. The result is bit-identical to
// AnalyzeApp over the collected trace.
func AnalyzeSource(src TraceSource, opt AnalysisOptions) (Profile, error) {
	return AnalyzeStream(src.Stream(), opt)
}

// AnalyzeStream is AnalyzeSource for an already-started stream (e.g. a
// CSVTraceStream over a network body or an on-disk trace).
func AnalyzeStream(st TraceStream, opt AnalysisOptions) (Profile, error) {
	opt = opt.withDefaults()
	if opt.LineBytes > 0 {
		st = trace.CoalesceStream(st, opt.LineBytes)
	}
	sopt := entropy.StreamOptions{Window: opt.Window, Bits: opt.Bits}
	if f := opt.Transform; f != nil {
		// The streaming profiler's one transform hook takes a batch.
		sopt.BatchTransform = func(addrs []uint64) {
			for i, a := range addrs {
				addrs[i] = f(a)
			}
		}
	}
	return entropy.ProfileStream(st, sopt)
}

// ---------------------------------------------------------------------
// Simulation (Table I systems)
// ---------------------------------------------------------------------

// Time is a simulation timestamp in picoseconds.
type Time = sim.Time

// SimConfig describes a simulated GPU system.
type SimConfig = gpusim.Config

// SimResult carries all measured metrics of one run.
type SimResult = gpusim.Result

// PowerBreakdown is DRAM power by component (Figure 16).
type PowerBreakdown = power.Breakdown

// BaselineConfig returns the paper's 12-SM GDDR5 system.
func BaselineConfig() SimConfig { return gpusim.Baseline() }

// ConventionalConfig returns a GDDR5 system with the given SM count
// (12/24/48 in Figure 18).
func ConventionalConfig(sms int) SimConfig { return gpusim.Conventional(sms) }

// Stacked3DConfig returns the 64-SM 3D-stacked system of Figure 18.
func Stacked3DConfig() SimConfig { return gpusim.Stacked3D() }

// Simulate runs one application trace under one mapping scheme.
func Simulate(app *App, m Mapper, cfg SimConfig) SimResult {
	return gpusim.Run(app, m, cfg)
}

// ---------------------------------------------------------------------
// Experiments (Section VI)
// ---------------------------------------------------------------------

// ExperimentOptions controls experiment scale and BIM seeds.
type ExperimentOptions = experiments.Options

// SuiteResult holds workload × scheme simulation results with the derived
// series of Figures 11–17 and 20.
type SuiteResult = experiments.SuiteResult

// Experiment runners; cmd/experiments -h lists every experiment.
func Figure3() (w2, w4 float64)                                { return experiments.Figure3() }
func Figure5(o ExperimentOptions) map[string]Profile           { return experiments.Figure5(o) }
func Figure10(o ExperimentOptions) map[Scheme]Profile          { return experiments.Figure10(o) }
func ValleySuite(o ExperimentOptions) SuiteResult              { return experiments.ValleySuite(o) }
func NonValleySuite(o ExperimentOptions) SuiteResult           { return experiments.NonValleySuite(o) }
func Figure18(o ExperimentOptions) []experiments.Figure18Point { return experiments.Figure18(o) }
func Figure19(o ExperimentOptions) map[Scheme][3]float64       { return experiments.Figure19(o) }
func Table2(o ExperimentOptions) []experiments.Table2Row       { return experiments.Table2(o) }

// WriteTraceCSV streams an application trace in the package's CSV trace
// format (see internal/trace: K records for kernels, R records for
// requests), so traces can be inspected or exchanged with other tools.
func WriteTraceCSV(w io.Writer, app *App) error { return trace.WriteCSV(w, app) }

// WriteTraceBinaryStream converts a trace stream to the VTRC binary
// container without materializing it (memory stays O(largest TB)) —
// the CSV→binary half of cmd/tracepack.
func WriteTraceBinaryStream(w io.Writer, st TraceStream) error {
	return trace.WriteBinaryStream(w, st)
}

// ---------------------------------------------------------------------
// Service (cmd/valleyd and embedders)
// ---------------------------------------------------------------------

// Service is the valleyd engine: a concurrent entropy-profiling and
// mapping-advisor service with a content-addressed LRU profile cache
// and a bounded worker pool for simulation sweeps. Serve its Handler
// over net/http, or call Profile/Advise/Simulate directly in-process.
type Service = service.Service

// ServiceConfig sizes a Service (workers, queue depth, cache entries).
type ServiceConfig = service.Config

// Service request/response types.
type (
	ServiceProfileRequest  = service.ProfileRequest
	ServiceProfileResult   = service.ProfileResult
	ServiceAdviseRequest   = service.AdviseRequest
	ServiceAdviseResult    = service.AdviseResult
	ServiceSimulateRequest = service.SimulateRequest
	ServiceSimulateResult  = service.SimulateResult
	ServiceJob             = service.Job
	ServiceCellResult      = service.CellResult
)

// Streaming sweep events: each job appends start / cell / terminal
// records to a log kept with the job, exposed over HTTP as NDJSON
// (POST /v1/simulate?stream=1, GET /v1/jobs/{id}/events) and in-process
// via Service.JobEvents. Events arrive in seq order with no duplicates,
// and every cell event precedes the single terminal event (done, failed,
// canceled or deadline_exceeded).
type (
	ServiceJobEvent        = service.JobEvent
	ServiceJobSubscription = service.JobSubscription
)

// Job event types, in stream order.
const (
	ServiceEventStart            = service.EventStart
	ServiceEventCell             = service.EventCell
	ServiceEventDone             = service.EventDone
	ServiceEventFailed           = service.EventFailed
	ServiceEventCanceled         = service.EventCanceled
	ServiceEventDeadlineExceeded = service.EventDeadlineExceeded
)

// ServiceJobTrace is the span tree of one sweep job: accept → enqueue →
// per-cell queue wait → trace build → engine run → cache put, served
// over HTTP as GET /v1/jobs/{id}/trace and in-process via
// Service.JobTrace.
type ServiceJobTrace = service.JobTrace

// NewService starts a service engine (its worker pool runs until Close).
// With ServiceConfig.SpillDir set, the simulation-result cache persists
// across restarts: evicted cells spill to the directory as they leave
// memory, Close spills the rest, and a new service over the same
// directory serves them as cache hits.
func NewService(cfg ServiceConfig) *Service { return service.New(cfg) }

// NewLogger builds a structured slog logger writing to w. format is
// "text" or "json"; level is debug|info|warn|error. Pass the result as
// ServiceConfig.Logger so the daemon's request logs, worker-panic
// reports and sweep lifecycle lines share one sink.
func NewLogger(w io.Writer, format, level string) (*slog.Logger, error) {
	return obs.NewLogger(w, format, level)
}
