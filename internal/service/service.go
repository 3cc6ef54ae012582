package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"math/bits"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"valleymap/internal/cache"
	"valleymap/internal/entropy"
	"valleymap/internal/experiments"
	"valleymap/internal/gpusim"
	"valleymap/internal/layout"
	"valleymap/internal/mapping"
	"valleymap/internal/obs"
	"valleymap/internal/trace"
	"valleymap/internal/workload"
)

// Valley-classification thresholds, shared with the renderers and the
// JSON export (Figure 5's qualitative low/high split).
const (
	valleyLow  = entropy.DefaultLow
	valleyHigh = entropy.DefaultHigh
)

// minProfileBits is the smallest profile width that covers every
// channel/bank bit of the reference layout — narrower profiles would
// index past PerBit when classifying the valley.
var minProfileBits = func() int {
	l := layout.HynixGDDR5()
	min := 1
	for _, b := range layout.Bits0(l.MaskOf(layout.Channel, layout.Bank)) {
		if b+1 > min {
			min = b + 1
		}
	}
	return min
}()

// Config sizes the service.
type Config struct {
	// Workers is the worker-pool size (0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds the worker-pool task queue (0 = 256).
	QueueDepth int
	// CacheEntries bounds the profile LRU cache (0 = 512).
	CacheEntries int
	// SimCacheEntries bounds the simulation-result LRU cache (0 = 256).
	// Cells are keyed by (workload, scale, scheme, config, seed), so
	// repeated sweeps over the same grid are near-free.
	SimCacheEntries int
	// MaxTraceBytes caps uploaded trace bodies (0 = 256 MiB). The cap
	// protects bandwidth, not memory: uploads stream through the
	// decoder → coalescer → accumulator pipeline at O(window × bits)
	// per request, so it is safe to raise far beyond the old 64 MiB
	// materialized-decoder default.
	MaxTraceBytes int64
	// MaxJobs bounds retained jobs; finished jobs beyond the cap are
	// evicted oldest-first (0 = 1000).
	MaxJobs int
	// TraceDir, when set, enables ProfileRequest.TraceFile: profile
	// requests may name trace files (CSV or VTRC binary, sniffed by
	// magic) inside this directory, so local multi-GB traces take the
	// zero-copy mmap path instead of an HTTP body copy.
	TraceDir string
	// SpillDir, when set, makes the simulation-result cache durable and
	// larger than RAM: entries evicted from memory spill to per-entry
	// checksummed files under this directory (the evicting call writes
	// the file before it returns), misses read through and promote
	// back, and Close writes the resident set to disk so a restarted
	// valleyd serves repeat sweeps warm. Damaged entries load as
	// misses, never errors.
	SpillDir string
	// SpillMaxBytes bounds the spill directory; a janitor evicts
	// entries oldest first to stay under it (0 = 1 GiB; negative =
	// unbounded). Ignored without SpillDir.
	SpillMaxBytes int64
	// DefaultDeadline, when positive, bounds every sweep that does not
	// carry its own ?deadline_ms / X-Deadline-Ms budget: the job is
	// canceled with a deadline_exceeded terminal event when it overruns.
	// Zero means jobs without an explicit budget run unbounded.
	DefaultDeadline time.Duration
	// Logger receives the service's structured logs (nil =
	// slog.Default()). Request-scoped children carry trace_id, path and
	// tenant; sweep logs carry job_id and trace_id.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 256
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 512
	}
	if c.SimCacheEntries == 0 {
		c.SimCacheEntries = 256
	}
	if c.MaxTraceBytes == 0 {
		c.MaxTraceBytes = 256 << 20
	}
	if c.MaxJobs == 0 {
		c.MaxJobs = 1000
	}
	if c.SpillMaxBytes == 0 {
		c.SpillMaxBytes = 1 << 30
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// Service is the valleyd engine. Construct with New, serve its Handler,
// Close on shutdown.
type Service struct {
	cfg      Config
	log      *slog.Logger
	metrics  *Metrics
	cache    *profileCache
	simCache *simCache
	jobs     *jobStore
	pool     *pool
	runners  runnerPool
	// costs prices sweep cells for admission control and Retry-After
	// hints (EWMA of measured cell seconds; see admission.go).
	costs *costModel
	// profileSem and streamSem bound profile passes: see doc.go.
	profileSem chan struct{}
	streamSem  chan struct{}
	start      time.Time
	// closeOnce makes Close idempotent.
	closeOnce sync.Once
	// sweepWG tracks sweep dispatcher goroutines so Close can wait for
	// every accepted job to reach a terminal state (done or failed)
	// before the resident cache is spilled. closeMu orders Simulate's
	// Add against Close's Wait: Adds only happen while !closed, and
	// closed is flipped under the lock before Wait starts, so the
	// WaitGroup never sees an Add racing a Wait from zero.
	sweepWG sync.WaitGroup
	closeMu sync.Mutex
	closed  bool
}

// New builds a service with its worker pool running. With
// Config.SpillDir set, the simulation-result cache is two-tier: memory
// over the spill directory, which is scanned (and any damaged entries
// discarded) before serving.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	m := NewMetrics()
	var spill *cache.DiskStore
	if cfg.SpillDir != "" {
		var err error
		spill, err = newSpillStore(cfg.SpillDir, cfg.SpillMaxBytes, m)
		if err != nil {
			// An unusable spill dir costs durability and warm capacity,
			// never availability: run memory-only.
			cfg.Logger.Warn("spill dir unusable, running memory-only", "dir", cfg.SpillDir, "error", err)
		}
	}
	s := &Service{
		cfg:        cfg,
		log:        cfg.Logger,
		metrics:    m,
		cache:      newProfileCache(cfg.CacheEntries, m),
		simCache:   newSimCache(cfg.SimCacheEntries, spill, m),
		jobs:       newJobStore(cfg.MaxJobs),
		pool:       newPool(cfg.Workers, cfg.QueueDepth, m, cfg.Logger),
		costs:      newCostModel(),
		profileSem: make(chan struct{}, cfg.Workers),
		streamSem:  make(chan struct{}, 4*cfg.Workers),
		start:      time.Now(),
	}
	return s
}

// Close drains the worker pool (in-flight cells finish; new
// submissions are rejected), waits for every accepted job to reach a
// terminal state and, when a spill directory is configured, writes the
// memory-resident cache to it, each entry file landing before Close
// returns, so a restarted service starts with the whole working set
// warm. Close is idempotent.
func (s *Service) Close() {
	s.closeOnce.Do(func() {
		s.closeMu.Lock()
		s.closed = true
		s.closeMu.Unlock()
		s.pool.close()
		s.sweepWG.Wait()
		s.simCache.SpillAll()
	})
}

// Metrics exposes the service's counters (for embedding and tests).
func (s *Service) Metrics() *Metrics { return s.metrics }

// badRequestError marks client errors (HTTP 400); notFoundError marks
// unknown-resource errors (HTTP 404).
type badRequestError struct{ msg string }

func (e badRequestError) Error() string { return e.msg }

type notFoundError struct{ msg string }

func (e notFoundError) Error() string { return e.msg }

// overloadedError marks capacity exhaustion (HTTP 503). retryAfter,
// when positive, becomes the response's Retry-After header — derived
// from the current queue depth × mean cell seconds, so clients back
// off proportionally to the actual backlog.
type overloadedError struct {
	msg        string
	retryAfter int
}

func (e overloadedError) Error() string { return e.msg }

func (e overloadedError) retryAfterSeconds() int { return e.retryAfter }

func badRequestf(format string, args ...any) error {
	return badRequestError{fmt.Sprintf(format, args...)}
}

func notFoundf(format string, args ...any) error {
	return notFoundError{fmt.Sprintf(format, args...)}
}

// ---------------------------------------------------------------------
// Profiling
// ---------------------------------------------------------------------

// ProfileRequest asks for a per-bit entropy profile. Either Workload
// names a built-in benchmark by Table II abbreviation, or TraceCSV
// carries an inline trace in the library CSV format (large traces are
// better POSTed as a text/csv body, which streams).
type ProfileRequest struct {
	Workload string `json:"workload,omitempty"`
	TraceCSV string `json:"trace_csv,omitempty"`
	// TraceFile names a trace file (CSV or VTRC binary) inside the
	// server's configured trace directory (Config.TraceDir); binary
	// files are profiled zero-copy via mmap. Bare file names only.
	TraceFile string `json:"trace_file,omitempty"`
	// Scale selects built-in trace size: tiny, small (default), full.
	Scale string `json:"scale,omitempty"`
	// Window, Bits, LineBytes mirror AnalysisOptions (0 = 12/30/128).
	// LineBytes must be a power of two; a negative value profiles the
	// raw per-thread requests without coalescing.
	Window    int `json:"window,omitempty"`
	Bits      int `json:"bits,omitempty"`
	LineBytes int `json:"line_bytes,omitempty"`
	// Scheme optionally applies a mapping before profiling (post-mapping
	// profiles, Figure 10); Seed selects the BIM instance.
	Scheme string `json:"scheme,omitempty"`
	Seed   int64  `json:"seed,omitempty"`
}

// BitRange is a contiguous dead-bit run [Lo, Hi].
type BitRange struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// ProfileResult is the structured entropy profile of one trace.
type ProfileResult struct {
	Trace        TraceInfo  `json:"trace"`
	Window       int        `json:"window"`
	Bits         int        `json:"bits"`
	LineBytes    int        `json:"line_bytes"`
	Scheme       string     `json:"scheme,omitempty"`
	Seed         int64      `json:"seed,omitempty"`
	PerBit       []float64  `json:"per_bit"`
	MeanChannel  float64    `json:"mean_channel_entropy"`
	MeanBank     float64    `json:"mean_bank_entropy"`
	MinChanBank  float64    `json:"min_channel_bank_entropy"`
	Valley       bool       `json:"valley"`
	ValleyRanges []BitRange `json:"valley_ranges"`
	CacheKey     string     `json:"cache_key"`
}

// TraceInfo summarizes the profiled trace.
type TraceInfo struct {
	Name     string `json:"name"`
	Abbr     string `json:"abbr"`
	Scale    string `json:"scale,omitempty"`
	SHA256   string `json:"sha256,omitempty"`
	Kernels  int    `json:"kernels"`
	Requests int    `json:"requests"`
}

type profileOptions struct {
	window, bits, lineBytes int
	scheme                  mapping.Scheme
	seed                    int64
}

func (r ProfileRequest) options() (profileOptions, error) {
	o := profileOptions{window: r.Window, bits: r.Bits, lineBytes: r.LineBytes, seed: r.Seed}
	if o.window == 0 {
		o.window = entropy.DefaultWindow
	}
	if o.bits == 0 {
		o.bits = entropy.DefaultBits
	}
	if o.lineBytes == 0 {
		o.lineBytes = trace.DefaultLineBytes
	}
	if o.window < 1 {
		return o, badRequestf("window must be >= 1, got %d", r.Window)
	}
	if o.bits < minProfileBits || o.bits > 64 {
		return o, badRequestf("bits must be in [%d,64], got %d (profiles index the layout's channel/bank bits)", minProfileBits, r.Bits)
	}
	// The coalescer's line mask assumes a power of two; anything else
	// would mangle addresses and silently cache a garbage profile.
	if o.lineBytes > 0 && (o.lineBytes&(o.lineBytes-1) != 0 || o.lineBytes > 1<<20) {
		return o, badRequestf("line_bytes must be a power of two <= 1048576, got %d", r.LineBytes)
	}
	if r.Scheme != "" {
		s, err := mapping.ParseScheme(r.Scheme)
		if err != nil {
			return o, badRequestf("%v", err)
		}
		o.scheme = s
		if o.seed == 0 {
			o.seed = 1
		}
	} else {
		// The seed only feeds the mapper; normalize it away so identical
		// unmapped profiles share one cache entry regardless of seed.
		o.seed = 0
	}
	return o, nil
}

func (o profileOptions) cacheKey(src string) string {
	return fmt.Sprintf("%s|w=%d|b=%d|l=%d|x=%s:%d", src, o.window, o.bits, o.lineBytes, o.scheme, o.seed)
}

// Profile computes (or retrieves) the entropy profile described by req.
// The second return reports a cache hit.
func (s *Service) Profile(req ProfileRequest) (*ProfileResult, bool, error) {
	opt, err := req.options()
	if err != nil {
		return nil, false, err
	}
	in, err := s.resolveInput(req)
	if err != nil {
		return nil, false, err
	}
	defer in.close()
	return s.profile(in, opt)
}

// ProfileStream profiles a CSV trace read from r in one pass, at
// O(window × bits) memory, keyed by the canonical hash it accumulates
// as it reads. Decode errors are returned unwrapped so HTTP handlers
// can classify size-limit errors. A repeat upload reports a hit: it
// shares the stored profile, though it was profiled again.
func (s *Service) ProfileStream(r io.Reader, req ProfileRequest) (*ProfileResult, bool, error) {
	opt, err := req.options()
	if err != nil {
		return nil, false, err
	}
	return s.profile(&profileInput{src: trace.NewCSVStream(r), stages: &s.metrics.stageCSV}, opt)
}

// ProfileStreamBinary is ProfileStream for VTRC binary bodies. The two
// share cache entries: both key by the canonical record-stream hash, so
// a CSV upload and its binary conversion dedupe to one stored profile.
func (s *Service) ProfileStreamBinary(r io.Reader, req ProfileRequest) (*ProfileResult, bool, error) {
	opt, err := req.options()
	if err != nil {
		return nil, false, err
	}
	return s.profile(&profileInput{src: trace.NewBinaryStream(r), stages: &s.metrics.stageBinary}, opt)
}

// hashedTraceStream is what a one-shot body is besides a trace.Source
// (whose one Stream is the decoder itself): a decoder that knows the
// trace's canonical digest once drained.
type hashedTraceStream interface{ SHA256() string }

// profileInput is one resolved profile input, whichever entry point
// received it.
type profileInput struct {
	info TraceInfo // as results report it, less Kernels
	// id is the cache identity, "wl:ABBR:scale" or "tr:<sha>". It is
	// empty while src is a one-shot body (a hashedTraceStream) that has
	// not been drained; every other src is restartable.
	id       string
	src      trace.Source
	stages   *stageSet    // the container format's stage labels
	badInput string       // when set, a failed decode is a 400 naming it
	release  func() error // when set, frees a file mapping or handle
}

// identify gives a content-addressed trace its reported and cache identity.
func (in *profileInput) identify(info trace.SourceInfo, sha string) {
	in.info = TraceInfo{Name: info.Name, Abbr: info.Abbr, SHA256: sha}
	in.id = "tr:" + sha
}

// drained identifies a one-shot body that has been read to its end.
func (in *profileInput) drained() {
	in.identify(in.src.Info(), in.src.(hashedTraceStream).SHA256())
}

// fail classifies a pipeline error: when the input names a trace, a
// decode failure is the client's and says which trace failed.
func (in *profileInput) fail(err error) error {
	if err == nil || in.badInput == "" || errors.As(err, new(badRequestError)) {
		return err
	}
	return badRequestf("%s: %v", in.badInput, err)
}

func (in *profileInput) close() {
	if in.release != nil {
		in.release() //nolint:errcheck // read-only mapping/handle
	}
}

// csvText is an embedded CSV trace as a restartable source. Its
// identity is hashed once, up front, so passes decode unhashed.
type csvText struct {
	text string
	info trace.SourceInfo
}

func (c csvText) Info() trace.SourceInfo { return c.info }
func (c csvText) Stream() trace.Stream   { return trace.NewCSVStreamUnhashed(strings.NewReader(c.text)) }

// resolveInput turns the trace fields of a /v1/profile or /v1/advise
// request — a workload, an embedded trace_csv or a trace_file — into a
// profileInput. The caller must close it.
func (s *Service) resolveInput(req ProfileRequest) (*profileInput, error) {
	switch {
	case req.Workload != "" && req.TraceCSV != "":
		return nil, badRequestf("give either workload or trace_csv, not both")
	case req.TraceFile != "" && (req.Workload != "" || req.TraceCSV != ""):
		return nil, badRequestf("trace_file cannot be combined with workload or trace_csv")
	case req.TraceFile != "":
		// VTRC files are mapped, validated and keyed by the checksum read
		// at open; CSV files are one-shot bodies.
		name := req.TraceFile
		if s.cfg.TraceDir == "" {
			return nil, badRequestf("trace_file requires the service to be configured with a trace directory")
		}
		if name != filepath.Base(name) || name == "." || name == ".." {
			return nil, badRequestf("trace_file must be a bare file name inside the trace directory, got %q", name)
		}
		src, release, err := trace.OpenFile(filepath.Join(s.cfg.TraceDir, name))
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil, notFoundf("no trace file %q in the trace directory", name)
			}
			return nil, badRequestf("bad trace file %q: %v", name, err)
		}
		in := &profileInput{src: src, stages: &s.metrics.stageCSV, badInput: fmt.Sprintf("bad trace file %q", name), release: release}
		if ms, ok := src.(*trace.MmapSource); ok {
			in.stages = &s.metrics.stageBinary
			in.identify(ms.Info(), ms.SHA256())
		}
		return in, nil
	case req.Workload != "":
		spec, ok := workload.ByAbbr(req.Workload)
		if !ok {
			return nil, notFoundf("unknown workload %q (want one of %v)", req.Workload, workload.Abbrs())
		}
		scale, err := workload.ParseScale(req.Scale)
		if err != nil {
			return nil, badRequestf("%v", err)
		}
		in := &profileInput{id: "wl:" + spec.Abbr + ":" + scale.String(), src: spec.Source(scale), stages: &s.metrics.stageNative}
		in.info = TraceInfo{Name: spec.Name, Abbr: spec.Abbr, Scale: scale.String()}
		return in, nil
	case req.TraceCSV != "":
		// The embedded trace is in memory, so its canonical hash is cheap
		// to take up front and repeats skip the profiling pass.
		cs := trace.NewCSVStreamUnhashed(strings.NewReader(req.TraceCSV))
		sum, err := trace.CanonicalHash(cs)
		if err != nil {
			return nil, badRequestf("bad trace: %v", err)
		}
		in := &profileInput{src: csvText{req.TraceCSV, cs.Info()}, stages: &s.metrics.stageCSV, badInput: "bad trace"}
		in.identify(cs.Info(), sum)
		return in, nil
	default:
		return nil, badRequestf("request needs a workload abbreviation or a trace")
	}
}

// profile is the one compute path behind every profile entry point:
// see "Profile path" in doc.go.
func (s *Service) profile(in *profileInput, opt profileOptions) (*ProfileResult, bool, error) {
	var (
		prof    entropy.Profile
		kernels int
	)
	pass := func(sem chan struct{}) error {
		sem <- struct{}{}
		defer func() { <-sem }()
		var err error
		prof, kernels, err = s.profilePipeline(in.src.Stream(), opt, in.stages)
		// This pass read the input's container; any later pass over the
		// same input (Advise's candidates) reads memory.
		in.stages = &s.metrics.stageNative
		return in.fail(err)
	}
	oneShot := in.id == ""
	if oneShot {
		if err := pass(s.streamSem); err != nil {
			return nil, false, err
		}
		in.drained()
	}
	key := opt.cacheKey(in.id)
	return s.cache.GetOrCompute(key, func() (*ProfileResult, error) {
		if !oneShot {
			if err := pass(s.profileSem); err != nil {
				return nil, err
			}
		}
		return assembleResult(prof, kernels, in.info, opt, key), nil
	})
}

// kernelCounter counts kernel headers as they flow by, so TraceInfo can
// report the kernel count without materializing the trace (the decoders
// and the accumulator deliberately keep no counts of their own).
type kernelCounter struct {
	s trace.Stream
	n int
}

func (k *kernelCounter) Next() (*trace.Batch, error) {
	b, err := k.s.Next()
	if err == nil && b.Kernel != nil {
		k.n++
	}
	return b, err
}

// profilePipeline drives one pass of the streaming hot path:
// stream → (coalesce) → (map) → online windowed accumulator.
// Each stage is wrapped in a TimedStream (exclusive per-batch wall
// time, nested stages subtracted) feeding the
// valleyd_stream_stage_seconds histogram under the ingest format's
// label set; the accumulator — not a Stream — reports through the fold
// hook instead.
func (s *Service) profilePipeline(st trace.Stream, opt profileOptions, stages *stageSet) (entropy.Profile, int, error) {
	kc := &kernelCounter{s: st}
	decode := trace.NewTimedStream(kc, nil, stages.decode.ObserveDuration)
	var in trace.Stream = decode
	if opt.lineBytes > 0 {
		in = trace.NewTimedStream(trace.CoalesceStream(in, opt.lineBytes), decode, stages.coalesce.ObserveDuration)
	}
	sopt := entropy.StreamOptions{
		Window: opt.window,
		Bits:   opt.bits,
		OnFold: stages.accumulate.ObserveDuration,
	}
	if opt.scheme != "" {
		m, err := mapping.New(opt.scheme, layout.HynixGDDR5(), mapping.Options{Seed: opt.seed})
		if err != nil {
			return entropy.Profile{}, 0, badRequestf("building %s mapper: %v", opt.scheme, err)
		}
		// The coalescer sees physical addresses (coalescing precedes the
		// mapper in hardware); the accumulator applies the BIM a batch
		// at a time.
		sopt.BatchTransform = m.MapBatch
	}
	prof, err := entropy.ProfileStream(in, sopt)
	if err != nil {
		return entropy.Profile{}, 0, err
	}
	return prof, kc.n, nil
}

func assembleResult(prof entropy.Profile, kernels int, info TraceInfo, opt profileOptions, key string) *ProfileResult {
	info.Kernels, info.Requests = kernels, prof.Requests
	l := layout.HynixGDDR5()
	// Bits below the block offset — and, when coalescing is on, below
	// the line size — are structurally zero: they carry no entropy by
	// construction, so they are excluded from valley classification,
	// the channel/bank means, and the reported ranges alike (otherwise
	// line_bytes >= 512 would zero channel bit 8 and flag a "valley"
	// for every trace).
	clipTop := len(l.FieldBits(layout.Block))
	if opt.lineBytes > 0 {
		if lineTop := bits.TrailingZeros64(uint64(opt.lineBytes)); lineTop > clipTop {
			clipTop = lineTop
		}
	}
	clip := func(positions []int) []int {
		out := positions[:0:0]
		for _, b := range positions {
			if b >= clipTop {
				out = append(out, b)
			}
		}
		return out
	}
	ch := clip(l.FieldBits(layout.Channel))
	bank := clip(l.FieldBits(layout.Bank))
	res := &ProfileResult{
		Trace:       info,
		Window:      opt.window,
		Bits:        opt.bits,
		LineBytes:   opt.lineBytes,
		Scheme:      string(opt.scheme),
		Seed:        opt.seed, // options() zeroes it for unmapped profiles
		PerBit:      prof.PerBit,
		MeanChannel: prof.Mean(ch),
		MeanBank:    prof.Mean(bank),
		MinChanBank: prof.Min(append(append([]int(nil), ch...), bank...)),
		Valley:      prof.ChannelBankValley(ch, bank, valleyLow, valleyHigh),
		CacheKey:    key,
	}
	res.ValleyRanges = []BitRange{}
	for _, r := range prof.ValleyRanges(valleyLow, valleyHigh) {
		if r.Hi < clipTop {
			continue
		}
		if r.Lo < clipTop {
			r.Lo = clipTop
		}
		res.ValleyRanges = append(res.ValleyRanges, BitRange{Lo: r.Lo, Hi: r.Hi})
	}
	return res
}

// ---------------------------------------------------------------------
// Simulation sweeps
// ---------------------------------------------------------------------

// SimulateRequest enqueues a workload × scheme sweep. Workloads lists
// Table II abbreviations, or Set names a group (valley, nonvalley,
// all). Config picks the simulated system: baseline (12 SMs), conv-24,
// conv-48, or 3d (64-SM 3D-stacked).
type SimulateRequest struct {
	Workloads []string `json:"workloads,omitempty"`
	Set       string   `json:"set,omitempty"`
	Schemes   []string `json:"schemes,omitempty"`
	Scale     string   `json:"scale,omitempty"`
	Seed      int64    `json:"seed,omitempty"`
	Config    string   `json:"config,omitempty"`
}

// CellResult is one workload × scheme simulation: the shared metric
// flattening of internal/experiments plus the sweep coordinates.
// Seconds is the cell's wall time inside this sweep. Cached reports
// that the metrics came from the simulation-result cache rather than a
// fresh simulation; a resident entry makes Seconds near zero, but a
// cell that joined another sweep's in-flight computation reports the
// full wait even though Cached is true.
type CellResult struct {
	Workload string  `json:"workload"`
	Scheme   string  `json:"scheme"`
	Speedup  float64 `json:"speedup,omitempty"`
	Seconds  float64 `json:"seconds"`
	Cached   bool    `json:"cached,omitempty"`
	experiments.ResultJSON
}

// SimulateResult aggregates a finished sweep. Speedups and HMeanSpeedup
// are present when BASE is among the schemes; Seconds is the sweep's
// total wall time from dispatch to aggregation.
type SimulateResult struct {
	Config       string             `json:"config"`
	Scale        string             `json:"scale"`
	Seed         int64              `json:"seed"`
	Workloads    []string           `json:"workloads"`
	Schemes      []string           `json:"schemes"`
	Cells        []CellResult       `json:"cells"`
	Seconds      float64            `json:"seconds"`
	HMeanSpeedup map[string]float64 `json:"hmean_speedup,omitempty"`
}

// runCoords are the run coordinates every cell of a sweep shares: the
// simulated system, the trace scale and the mapper seed, each with its
// wire name.
type runCoords struct {
	cfg       gpusim.Config
	cfgName   string
	scale     workload.Scale
	scaleName string
	seed      int64
}

// resolveCoords resolves the wire strings for config and scale and the
// wire seed (0 = 1) into run coordinates. It is the one place sweeps and
// cells default their seed.
func resolveCoords(config, scale string, seed int64) (*runCoords, error) {
	cfg, cfgName, err := parseSimConfig(config)
	if err != nil {
		return nil, err
	}
	sc, err := workload.ParseScale(scale)
	if err != nil {
		return nil, badRequestf("%v", err)
	}
	if seed == 0 {
		seed = 1
	}
	return &runCoords{cfg: cfg, cfgName: cfgName, scale: sc, scaleName: sc.String(), seed: seed}, nil
}

// cellKey is the sim-cache key of one cell under these coordinates.
func (rc *runCoords) cellKey(abbr string, sc mapping.Scheme) string {
	return fmt.Sprintf("sim|%s|%s|%s|%s|%d", abbr, rc.scaleName, sc, rc.cfgName, rc.seed)
}

// cell binds one workload × scheme pair to these coordinates. Every
// cellExec is built here; callers attach the shared trace slot and the
// observability context.
func (rc *runCoords) cell(sp workload.Spec, sc mapping.Scheme) cellExec {
	return cellExec{rc: rc, sp: sp, sc: sc, key: rc.cellKey(sp.Abbr, sc)}
}

func parseSimConfig(name string) (gpusim.Config, string, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "baseline", "conv-12":
		return gpusim.Baseline(), "baseline", nil
	case "conv-24":
		return gpusim.Conventional(24), "conv-24", nil
	case "conv-48":
		return gpusim.Conventional(48), "conv-48", nil
	case "3d", "stacked3d", "3d-64sm":
		return gpusim.Stacked3D(), "3d", nil
	default:
		return gpusim.Config{}, "", badRequestf("unknown config %q (want baseline, conv-24, conv-48 or 3d)", name)
	}
}

// sweepPlan is one resolved sweep: the workload × scheme grid under one
// set of run coordinates. cells holds the grid's cells in result order,
// cells[wi*len(schemes)+si], each bound to its sim-cache key.
type sweepPlan struct {
	rc      *runCoords
	specs   []workload.Spec
	schemes []mapping.Scheme
	cells   []cellExec
}

func (p sweepPlan) result() *SimulateResult {
	r := &SimulateResult{
		Config: p.rc.cfgName,
		Scale:  p.rc.scaleName,
		Seed:   p.rc.seed,
		Cells:  make([]CellResult, len(p.cells)),
	}
	for _, sp := range p.specs {
		r.Workloads = append(r.Workloads, sp.Abbr)
	}
	for _, sc := range p.schemes {
		r.Schemes = append(r.Schemes, string(sc))
	}
	return r
}

// resolveSweep validates req against the workload, set, scheme, config
// and scale vocabularies. A workload or scheme may appear once, because
// a (workload, scheme) pair names exactly one slot of the result grid.
// Duplicates are checked after resolving, since "pae" and "PAE" are one
// scheme.
func resolveSweep(req SimulateRequest) (sweepPlan, error) {
	var specs []workload.Spec
	switch {
	case len(req.Workloads) > 0 && req.Set != "":
		return sweepPlan{}, badRequestf("give either workloads or set, not both")
	case len(req.Workloads) > 0:
		for _, abbr := range req.Workloads {
			spec, ok := workload.ByAbbr(abbr)
			if !ok {
				return sweepPlan{}, notFoundf("unknown workload %q (want one of %v)", abbr, workload.Abbrs())
			}
			if slices.ContainsFunc(specs, func(prev workload.Spec) bool { return prev.Abbr == spec.Abbr }) {
				return sweepPlan{}, badRequestf("duplicate workload %q", abbr)
			}
			specs = append(specs, spec)
		}
	default:
		switch strings.ToLower(strings.TrimSpace(req.Set)) {
		case "valley":
			specs = workload.ValleySet()
		case "nonvalley", "non-valley":
			specs = workload.NonValleySet()
		case "all":
			specs = workload.Catalog()
		case "":
			return sweepPlan{}, badRequestf("request needs workloads or a set (valley, nonvalley, all)")
		default:
			return sweepPlan{}, badRequestf("unknown set %q (want valley, nonvalley or all)", req.Set)
		}
	}

	schemes := mapping.Schemes()
	if len(req.Schemes) > 0 {
		schemes = schemes[:0]
		for _, name := range req.Schemes {
			sc, err := mapping.ParseScheme(name)
			if err != nil {
				return sweepPlan{}, badRequestf("%v", err)
			}
			if slices.Contains(schemes, sc) {
				return sweepPlan{}, badRequestf("duplicate scheme %q (%s is already in the sweep)", name, sc)
			}
			schemes = append(schemes, sc)
		}
	}

	rc, err := resolveCoords(req.Config, req.Scale, req.Seed)
	if err != nil {
		return sweepPlan{}, err
	}
	p := sweepPlan{rc: rc, specs: specs, schemes: schemes}
	for _, sp := range specs {
		for _, sc := range schemes {
			p.cells = append(p.cells, rc.cell(sp, sc))
		}
	}
	return p, nil
}

// Simulate validates the sweep, enqueues it on the worker pool and
// returns the queued job. Poll Job for progress and results.
func (s *Service) Simulate(req SimulateRequest) (Job, error) {
	return s.SimulateCtx(context.Background(), req)
}

// SimulateCtx is Simulate with request-scoped observability: the job
// adopts the context's trace ID (obs.WithTraceID; one is minted when
// absent) and records a span trace — HTTP accept, enqueue, per-cell
// queue wait, trace build, engine run and cache put — served afterwards
// by GET /v1/jobs/{id}/trace and JobTrace.
func (s *Service) SimulateCtx(ctx context.Context, req SimulateRequest) (Job, error) {
	plan, err := resolveSweep(req)
	if err != nil {
		return Job{}, err
	}

	// Admission gate: price the sweep (uncached cells behind the current
	// backlog, via the EWMA cost model) against its deadline before
	// accepting it; fully-cached sweeps bypass a saturated pool inline.
	// The deadline instant comes from the request context — the HTTP
	// layer sets it from ?deadline_ms / X-Deadline-Ms or the daemon
	// default — and survives into the job context below even though the
	// request context itself dies with the handler.
	var deadline *time.Time
	if dl, ok := ctx.Deadline(); ok {
		t := dl.UTC()
		deadline = &t
	}
	degraded, err := s.admitSweep(deadline, plan)
	if err != nil {
		return Job{}, err
	}

	// Register the dispatcher before creating the job, under closeMu:
	// once Close has flipped closed, no new sweep can slip past its
	// sweepWG.Wait, so the shutdown spill always sees every accepted job
	// in a terminal state.
	s.closeMu.Lock()
	if s.closed {
		s.closeMu.Unlock()
		return Job{}, overloadedError{msg: "service shutting down"}
	}
	s.sweepWG.Add(1)
	s.closeMu.Unlock()

	traceID := obs.TraceID(ctx)
	if traceID == "" {
		traceID = obs.NewTraceID()
	}
	total := len(plan.cells)
	tr := obs.NewTrace(traceID)
	// The root span starts at the HTTP accept instant when the handler
	// recorded one, so accept-to-enqueue time is visible in the tree.
	root := tr.StartAt(0, "job", obs.AcceptTime(ctx),
		obs.Attr{Key: "config", Value: plan.rc.cfgName},
		obs.Attr{Key: "scale", Value: plan.rc.scaleName},
	)

	// The job context outlives the request: values (trace ID, accept
	// time) carry over, the request's cancellation does not — a 202 job
	// must survive its handler returning — and the deadline instant is
	// re-applied. The cancel function is kept in the job's record so
	// DELETE and stream disconnects can fire it with a cause.
	jobCtx, cancelJob := context.WithCancelCause(context.WithoutCancel(ctx))
	release := func() { cancelJob(nil) }
	if deadline != nil {
		var cancelT context.CancelFunc
		jobCtx, cancelT = context.WithDeadline(jobCtx, *deadline)
		release = func() { cancelT(); cancelJob(nil) }
	}
	enq := tr.Start(root.ID(), "enqueue")
	job, err := s.jobs.create(total, tr, cancelJob, deadline)
	if err != nil {
		release()
		s.sweepWG.Done()
		return Job{}, overloadedError{msg: err.Error(), retryAfter: s.retryAfterHint()}
	}
	enq.Annotate(obs.Attr{Key: "job_id", Value: job.ID})
	enq.End()
	s.metrics.jobsEnqueued.Inc()

	sw := &sweep{plan: plan, jobID: job.ID, jobs: s.jobs, tr: tr, root: root,
		apps: make([]sharedApp, len(plan.specs)), result: plan.result(), degraded: degraded}

	// The dispatcher goroutine owns the job lifecycle: it fans cells out
	// over the pool (blocking on the bounded queue for backpressure),
	// waits, aggregates and finishes the job. The HTTP handler returns
	// the queued job immediately. If the sweep finishes and is evicted
	// under churn before the re-read, the creation-time copy is still a
	// valid handle for the client.
	go s.runSweep(jobCtx, sw, release)
	if snap, ok := s.jobs.get(job.ID); ok {
		return snap, nil
	}
	return job, nil
}

// CancelJob cancels an in-flight job with the given reason; the job
// terminates with a canceled event once its running cells observe the
// dead context (bounded by the engine's checkpoint interval). It
// reports whether the job is known; canceling an already-terminal job
// is a no-op that still reports true.
func (s *Service) CancelJob(id, reason string) bool {
	if reason == "" {
		reason = "canceled by request"
	}
	return s.jobs.cancel(id, fmt.Errorf("%w: %s", context.Canceled, reason))
}

// runnerPool keeps idle gpusim.Runners (engine, slab, request pools,
// program buffers) for reuse across sweep cells. It is a free list, not
// a sync.Pool, so garbage collections do not drop warm Runners, and it
// never holds more Runners than cells ever ran at once. Runner reuse is
// bit-deterministic — see internal/sim's determinism contract — so
// cells drawing warm runners produce the same Results as cold ones.
type runnerPool struct {
	mu    sync.Mutex
	free  []*gpusim.Runner
	built int // Runners built so far
}

// get takes an idle Runner, or builds one when none is idle.
func (p *runnerPool) get() *gpusim.Runner {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		r := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return r
	}
	p.built++
	p.mu.Unlock()
	return gpusim.NewRunner()
}

// put returns a Runner that get handed out.
func (p *runnerPool) put(r *gpusim.Runner) {
	p.mu.Lock()
	p.free = append(p.free, r)
	p.mu.Unlock()
}

// sharedApp materializes one workload trace at most once per sweep and
// shares it across that workload's scheme cells. The *trace.App is
// strictly read-only after Build (gpusim.Runner.Run documents the
// contract), which is what makes sharing across pool workers safe; the
// request-count assertion below backstops it.
type sharedApp struct {
	once sync.Once
	app  *trace.App
	reqs int
}

func (sa *sharedApp) get(sp workload.Spec, scale workload.Scale) *trace.App {
	sa.once.Do(func() {
		sa.app = sp.Build(scale)
		sa.reqs = sa.app.Requests()
	})
	return sa.app
}

// sweep is one running sweep: its plan, the job it reports to, the span
// trace it records into, the per-workload shared trace builds and the
// result being filled, plus the first cell error.
type sweep struct {
	plan     sweepPlan
	jobID    string
	jobs     *jobStore
	tr       *obs.Trace
	root     obs.SpanRef
	apps     []sharedApp
	result   *SimulateResult
	degraded bool

	errMu    sync.Mutex
	firstErr error
}

func (sw *sweep) cell(i int) cellExec {
	ce := sw.plan.cells[i]
	ce.sa = &sw.apps[i/len(sw.plan.schemes)]
	ce.jobID = sw.jobID
	ce.tr = sw.tr
	ce.span = sw.root
	return ce
}

// deliver publishes a finished cell on the job's event stream the
// moment it lands (streaming clients see it before job completion) and
// files it into its grid slot. Each slot is delivered at most once per
// sweep, so the write needs no lock.
func (sw *sweep) deliver(i int, done CellResult) {
	sw.result.Cells[i] = done
	sw.jobs.cellDone(sw.jobID, done)
}

func (sw *sweep) fail(err error) {
	sw.errMu.Lock()
	if sw.firstErr == nil {
		sw.firstErr = err
	}
	sw.errMu.Unlock()
}

// runSweep is the dispatcher goroutine that owns one job's lifecycle:
// it fans cells onto the pool (or runs them inline in degraded mode),
// waits, aggregates and publishes the terminal event. ctx is the job
// context — cancellation or deadline expiry stops fan-out, skips queued
// cells, interrupts running engines at their checkpoint interval and
// terminates the job with a canceled/deadline_exceeded event. release
// frees the job context's resources when the sweep ends.
func (s *Service) runSweep(ctx context.Context, sw *sweep, release func()) {
	defer s.sweepWG.Done()
	defer release()
	defer sw.root.End()
	start := time.Now()
	s.jobs.setRunning(sw.jobID)
	if sw.degraded {
		s.metrics.degradedSweeps.Inc()
		sw.root.Annotate(obs.Attr{Key: "degraded", Value: "true"})
	}
	s.dispatchLocal(ctx, sw)
	elapsed := time.Since(start)
	s.metrics.sweepSeconds.Add(elapsed.Seconds())
	if cause := context.Cause(ctx); cause != nil {
		// Cancellation outranks any cell error it induced: a canceled
		// sweep's cells fail with context errors, but the job's terminal
		// state should say "canceled", not "failed".
		s.metrics.jobsCanceled.Inc()
		j, _ := s.jobs.get(sw.jobID)
		s.jobs.finish(sw.jobID, nil, cause)
		s.log.Info("sweep canceled",
			"job_id", sw.jobID, "trace_id", sw.tr.ID(),
			"done_cells", j.Done, "duration_ms", elapsed.Milliseconds(),
			"cause", cause)
		return
	}
	if sw.firstErr != nil {
		s.metrics.jobsFailed.Inc()
		s.jobs.finish(sw.jobID, nil, sw.firstErr)
		s.log.Warn("sweep failed",
			"job_id", sw.jobID, "trace_id", sw.tr.ID(),
			"duration_ms", elapsed.Milliseconds(), "error", sw.firstErr)
		return
	}
	sw.result.Seconds = elapsed.Seconds()
	aggregateSweep(sw.result)
	s.metrics.jobsDone.Inc()
	s.jobs.finish(sw.jobID, sw.result, nil)
	s.log.Debug("sweep done",
		"job_id", sw.jobID, "trace_id", sw.tr.ID(),
		"cells", len(sw.result.Cells), "duration_ms", elapsed.Milliseconds())
}

// aggregateSweep fills speedups vs BASE and per-scheme harmonic means
// when the sweep includes the BASE scheme.
func aggregateSweep(r *SimulateResult) {
	baseTime := map[string]int64{}
	for _, c := range r.Cells {
		if c.Scheme == string(mapping.BASE) {
			baseTime[c.Workload] = c.ExecTimePS
		}
	}
	if len(baseTime) == 0 {
		return
	}
	perScheme := map[string][]float64{}
	for i := range r.Cells {
		c := &r.Cells[i]
		if b, ok := baseTime[c.Workload]; ok && c.ExecTimePS > 0 {
			c.Speedup = float64(b) / float64(c.ExecTimePS)
			perScheme[c.Scheme] = append(perScheme[c.Scheme], c.Speedup)
		}
	}
	r.HMeanSpeedup = map[string]float64{}
	for sc, xs := range perScheme {
		r.HMeanSpeedup[sc] = experiments.HarmonicMean(xs)
	}
}

// Job returns a snapshot of the named job.
func (s *Service) Job(id string) (Job, bool) { return s.jobs.get(id) }

// JobEvents subscribes to the named job's event stream, replaying
// retained events with Seq >= from (pass 0 for the full history —
// start, every finished cell, then the terminal event). It reports
// false for unknown or evicted jobs; a subscription taken before an
// eviction still reads to the end of the stream.
func (s *Service) JobEvents(id string, from int) (*JobSubscription, bool) {
	return s.jobs.subscribe(id, from)
}
