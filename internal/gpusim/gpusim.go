// Package gpusim wires the substrate models into the full simulated GPU
// of Table I — SMs with L1s, the 12×8 crossbar NoC, eight LLC slices,
// and the 4-channel GDDR5 (or 3D-stacked) DRAM system — and runs
// application traces through a chosen address mapping scheme, producing
// every metric the paper's evaluation reports.
//
// The hot path is allocation-disciplined: every event schedules through
// the engine's handler API with pooled per-request records, DRAM
// requests recycle through a dram.Pool, and TB program buffers recycle
// across launches. A Runner carries all of that state across sequential
// runs, so sweeps reuse one engine and one set of pools per worker.
package gpusim

import (
	"context"
	"fmt"
	"time"

	"valleymap/internal/cache"
	"valleymap/internal/dram"
	"valleymap/internal/gpu"
	"valleymap/internal/layout"
	"valleymap/internal/mapping"
	"valleymap/internal/metrics"
	"valleymap/internal/noc"
	"valleymap/internal/power"
	"valleymap/internal/sim"
	"valleymap/internal/trace"
)

// Config describes one simulated system.
type Config struct {
	Name string
	// SMs is the streaming-multiprocessor count (12 baseline; 24/48/64
	// in the Figure 18 sensitivity study).
	SMs int
	SM  gpu.Config
	NoC noc.Config
	// LLCSlices × LLCSlice must total 512 KB in the baseline.
	LLCSlices int
	LLCSlice  cache.Config
	// LLCLatencyCycles is the slice access latency in core cycles and
	// LLCOccupancyCycles its per-access port occupancy.
	LLCLatencyCycles   int
	LLCOccupancyCycles int
	// Layout + DRAMTiming select conventional GDDR5 or 3D-stacked memory.
	Layout     layout.Layout
	DRAMTiming dram.Timing
	// MaxWarpsPerSM bounds TB occupancy together with gpu.Config.MaxTBs
	// (48 warps of 32 threads in Table I).
	MaxWarpsPerSM int
	// Power is the calibrated power model.
	Power power.System
}

// Conventional returns the Table I system with the given SM count and
// GDDR5 memory.
func Conventional(sms int) Config {
	return Config{
		Name:               fmt.Sprintf("conv-%dsm", sms),
		SMs:                sms,
		SM:                 gpu.DefaultConfig(),
		NoC:                noc.DefaultConfig(sms),
		LLCSlices:          8,
		LLCSlice:           cache.LLCSliceConfig(),
		LLCLatencyCycles:   80,
		LLCOccupancyCycles: 2,
		Layout:             layout.HynixGDDR5(),
		DRAMTiming:         dram.HynixGDDR5Timing(),
		MaxWarpsPerSM:      48,
		Power:              power.DefaultSystem(),
	}
}

// Baseline is the paper's 12-SM configuration.
func Baseline() Config { return Conventional(12) }

// Stacked3D returns the Section VI-D 3D-stacked system: 64 SMs, 640 GB/s
// stacked memory, and a proportionally wider NoC (960 GB/s).
func Stacked3D() Config {
	cfg := Conventional(64)
	cfg.Name = "3d-64sm"
	cfg.Layout = layout.Stacked3D()
	cfg.DRAMTiming = dram.Stacked3DTiming()
	cfg.NoC.ChannelBytes = 64 // ~2x the conventional NoC bandwidth
	return cfg
}

// Result carries every metric of the Section VI figures for one run.
type Result struct {
	App    string
	Scheme mapping.Scheme
	Config string

	ExecTime     sim.Time
	Instructions int64
	Requests     int   // pre-coalescing accesses
	Transactions int64 // post-coalescing transactions

	L1  cache.Stats
	LLC cache.Stats

	NoCAvgLatencyCycles float64 // Figure 13a
	LLCParallelism      float64 // Figure 14a
	ChannelParallelism  float64 // Figure 14b
	BankParallelism     float64 // Figure 14c

	DRAM      dram.Stats      // Figure 15 (row-buffer hit rate)
	DRAMPower power.Breakdown // Figure 16
	GPUPowerW float64
	SystemW   float64
	PerfPerW  float64 // Figure 17

	APKI, MPKI float64 // Table II
}

// IPS returns instructions per second (performance; speedups are ratios
// of this across schemes).
func (r Result) IPS() float64 {
	s := r.ExecTime.Seconds()
	if s <= 0 {
		return 0
	}
	return float64(r.Instructions) / s
}

// llcSlice is one LLC slice with its port.
type llcSlice struct {
	c    *cache.Cache
	port sim.Server
}

// memReq is one in-flight memory transaction between an SM and the
// memory system; pooled on the Runner and recycled when the response
// lands (reads) or the LLC retires the store (writes).
type memReq struct {
	sys   *system
	sm    int32
	slice int32
	addr  uint64
	sink  gpu.ReadSink
	// dramDone is bound once at construction (to this record's
	// onDRAMDone), so handing it to dram.Request.Done never allocates.
	dramDone func(sim.Time)
}

func (r *memReq) onDRAMDone(sim.Time) { r.sys.respond(r) }

// system is the fabric implementation handed to SMs.
type system struct {
	eng    *sim.Engine
	run    *Runner
	cfg    Config
	xbar   *noc.Crossbar
	slices []*llcSlice
	dram   *dram.System
	par    *metrics.MemParallelism

	sliceShift uint
	sliceMask  uint64
}

func (sys *system) sliceOf(addr uint64) int {
	return int((addr >> sys.sliceShift) & sys.sliceMask)
}

func (sys *system) getReq() *memReq {
	rn := sys.run
	if n := len(rn.reqFree); n > 0 {
		r := rn.reqFree[n-1]
		rn.reqFree = rn.reqFree[:n-1]
		r.sys = sys
		return r
	}
	r := &memReq{sys: sys}
	r.dramDone = r.onDRAMDone
	return r
}

func (sys *system) putReq(r *memReq) {
	// Drop the sink and system references: an idle Runner must not pin
	// the finished run's SMs, caches and controllers through its free
	// list (getReq rebinds sys on reuse; dramDone stays valid because it
	// is bound to the memReq itself).
	r.sink = nil
	r.sys = nil
	sys.run.reqFree = append(sys.run.reqFree, r)
}

// llcLookup performs the slice access at the current time and returns
// (hit, time at which the slice lookup resolves). Misses and dirty
// writebacks generate DRAM traffic.
func (sys *system) llcLookup(slice int, addr uint64, write bool) (bool, sim.Time) {
	now := sys.eng.Now()
	cc := sys.cfg.SM.CoreClock
	_, grant := sys.slices[slice].port.Acquire(now, cc.Cycles(int64(sys.cfg.LLCOccupancyCycles)))
	resolve := grant + cc.Cycles(int64(sys.cfg.LLCLatencyCycles))
	res := sys.slices[slice].c.Access(addr, write)
	if res.Eviction && res.VictimDirty {
		// Write the victim back to DRAM; fire-and-forget.
		wb := sys.dram.Get()
		wb.Addr = res.Victim
		wb.Write = true
		sys.dram.Enqueue(wb)
	}
	return res.Hit, resolve
}

// Event handlers: package-level functions over pooled memReqs, so the
// whole read/write flow schedules without allocating.

// readArriveH fires when a read request packet reaches its LLC slice.
func readArriveH(arg any) {
	r := arg.(*memReq)
	sys := r.sys
	sys.par.LLCDelta(sys.eng.Now(), int(r.slice), +1)
	hit, resolve := sys.llcLookup(int(r.slice), r.addr, false)
	if hit {
		sys.eng.AtCall(resolve, respondH, r)
		return
	}
	// Fetch the line from DRAM, then respond.
	sys.eng.AtCall(resolve, readMissH, r)
}

// readMissH fires when a missing slice lookup resolves: the line is
// fetched from DRAM and the response continues in onDRAMDone.
func readMissH(arg any) {
	r := arg.(*memReq)
	d := r.sys.dram.Get()
	d.Addr = r.addr
	d.Write = false
	d.Done = r.dramDone
	r.sys.dram.Enqueue(d)
}

// respondH fires when a hitting slice lookup resolves.
func respondH(arg any) {
	r := arg.(*memReq)
	r.sys.respond(r)
}

// respDoneH fires when the 128 B response packet reaches the SM.
func respDoneH(arg any) {
	r := arg.(*memReq)
	sys := r.sys
	now := sys.eng.Now()
	sys.par.LLCDelta(now, int(r.slice), -1)
	sink, addr := r.sink, r.addr
	sys.putReq(r)
	sink.FillLine(addr, now)
}

// writeArriveH fires when a store packet (header + line) reaches its
// LLC slice.
func writeArriveH(arg any) {
	r := arg.(*memReq)
	sys := r.sys
	sys.par.LLCDelta(sys.eng.Now(), int(r.slice), +1)
	_, resolve := sys.llcLookup(int(r.slice), r.addr, true)
	sys.eng.AtCall(resolve, writeRetireH, r)
}

// writeRetireH retires a store at the LLC.
func writeRetireH(arg any) {
	r := arg.(*memReq)
	sys := r.sys
	sys.par.LLCDelta(sys.eng.Now(), int(r.slice), -1)
	sys.putReq(r)
}

// IssueRead implements gpu.Fabric.
func (sys *system) IssueRead(now sim.Time, sm int, addr uint64, sink gpu.ReadSink) {
	r := sys.getReq()
	r.sm, r.slice, r.addr, r.sink = int32(sm), int32(sys.sliceOf(addr)), addr, sink
	arrive := sys.xbar.SendToSlice(now, int(r.slice), 8)
	sys.eng.AtCall(arrive, readArriveH, r)
}

// respond returns a 128 B data packet to the SM and retires the slice's
// outstanding count.
func (sys *system) respond(r *memReq) {
	respAt := sys.xbar.SendToSM(sys.eng.Now(), int(r.sm), 128)
	sys.eng.AtCall(respAt, respDoneH, r)
}

// IssueWrite implements gpu.Fabric: stores carry a line to the LLC
// (write-allocate, write-back) and complete there.
func (sys *system) IssueWrite(now sim.Time, sm int, addr uint64) {
	r := sys.getReq()
	r.sm, r.slice, r.addr = int32(sm), int32(sys.sliceOf(addr)), addr
	arrive := sys.xbar.SendToSlice(now, int(r.slice), 8+128)
	sys.eng.AtCall(arrive, writeArriveH, r)
}

// Runner owns the reusable simulation state: the event engine, the
// memReq free list, the DRAM request pool and the TB program buffers.
// Run resets the engine and reuses every pool, so sequential runs on
// one Runner allocate a fraction of what independent runs would — with
// bit-identical results (see internal/sim's determinism contract). A
// Runner is single-goroutine; use one per worker.
type Runner struct {
	eng      sim.Engine
	reqFree  []*memReq
	dramPool *dram.Pool
	progFree [][]gpu.WarpProgram
	coal     trace.Coalescer
	// onStage, when set, receives coarse per-run stage durations (see
	// SetStageObserver). Deliberately per-run, not per-event: the event
	// engine's zero-allocation steady state must stay untouched.
	onStage func(stage string, d time.Duration)
}

// Run stage names reported to the observer installed by
// SetStageObserver, in emission order.
const (
	StageSetup   = "setup"   // engine reset, NoC/DRAM/SM construction
	StageKernels = "kernels" // trace-driven kernel execution (the simulation)
	StageCollect = "collect" // metric collection and power model
)

// SetStageObserver installs f to receive each Run's coarse stage
// timings: setup, kernels, collect. f runs on the Run goroutine after
// the stage completes; nil removes the observer. The taps cost three
// time.Now pairs per Run — noise next to any real simulation — and feed
// valleyd's per-cell span attributes and stage histograms.
func (r *Runner) SetStageObserver(f func(stage string, d time.Duration)) { r.onStage = f }

// NewRunner returns an empty Runner.
func NewRunner() *Runner {
	return &Runner{dramPool: dram.NewPool()}
}

// EngineCounts reports the event engine's work in the last Run on r:
// the events it fired and the times its queue moved a pending event
// (sim.Engine's Events and Relinks). Both are exact for a given input,
// so unlike a timing they show a change in the simulator's work
// without host noise. Result does not carry them, so they change no
// digest or cached cell.
func (r *Runner) EngineCounts() (events, relinks uint64) {
	return r.eng.Events(), r.eng.Relinks()
}

func (r *Runner) getProgs() []gpu.WarpProgram {
	if n := len(r.progFree); n > 0 {
		p := r.progFree[n-1]
		r.progFree = r.progFree[:n-1]
		return p
	}
	return nil
}

func (r *Runner) putProgs(p []gpu.WarpProgram) {
	r.progFree = append(r.progFree, p)
}

// checkpointEvents is the cancellation-poll interval of RunCtx: the
// engine drains in bounded batches of this many events, checking
// ctx.Err() between batches. At the simulator's typical multi-million
// events/sec throughput this bounds cancellation latency to well under
// 100 ms of wall clock while keeping the per-event hot path untouched
// (the poll is one nil-check per batch).
const checkpointEvents = 100_000

// Run simulates one application under one mapping scheme.
//
// app is treated as strictly read-only: many Runners may simulate the
// same *trace.App concurrently (the service's sweep cells share one
// build per workload), so nothing in the simulator may mutate it.
func (run *Runner) Run(app *trace.App, mapper mapping.Mapper, cfg Config) Result {
	res, err := run.RunCtx(context.Background(), app, mapper, cfg)
	if err != nil {
		// Background contexts never cancel; unreachable.
		panic(err)
	}
	return res
}

// RunCtx simulates one application under one mapping scheme, honoring
// ctx cancellation. The engine drains in checkpointEvents-sized batches
// with a cancellation poll between batches, so an expired or abandoned
// run frees its goroutine within a bounded interval instead of running
// to completion. On cancellation it returns the zero Result and
// ctx.Err(); the Runner itself stays reusable (the next Run resets the
// engine and drops the abandoned run's pending events).
func (run *Runner) RunCtx(ctx context.Context, app *trace.App, mapper mapping.Mapper, cfg Config) (Result, error) {
	var stageStart time.Time
	if run.onStage != nil {
		stageStart = time.Now()
	}
	eng := &run.eng
	eng.Reset()
	par := metrics.NewMemParallelism(cfg.LLCSlices, cfg.Layout.Channels(), cfg.Layout.BanksPerChannel())
	xbar, err := noc.New(eng, cfg.NoC)
	if err != nil {
		panic(err)
	}
	sys := &system{
		eng:  eng,
		run:  run,
		cfg:  cfg,
		xbar: xbar,
		dram: dram.NewSystemWithPool(eng, dram.Config{Layout: cfg.Layout, Timing: cfg.DRAMTiming}, par, run.dramPool),
		par:  par,
	}
	// LLC slice selection uses the address bits starting at the channel
	// field, so slices align with channels (two slices per memory
	// controller in Table I).
	sys.sliceShift = uint(cfg.Layout.FieldBits(layout.Channel)[0])
	sys.sliceMask = uint64(cfg.LLCSlices - 1)
	for i := 0; i < cfg.LLCSlices; i++ {
		sys.slices = append(sys.slices, &llcSlice{c: cache.MustNew(cfg.LLCSlice)})
	}
	sms := make([]*gpu.SM, cfg.SMs)
	for i := range sms {
		sms[i] = gpu.New(eng, i, cfg.SM, sys)
	}

	if run.onStage != nil {
		now := time.Now()
		run.onStage(StageSetup, now.Sub(stageStart))
		stageStart = now
	}
	mapAddr := mapper.Map
	for ki := range app.Kernels {
		if err := run.runKernel(ctx, sms, &app.Kernels[ki], cfg, mapAddr); err != nil {
			return Result{}, err
		}
	}
	end := eng.Now()
	par.Finish(end)
	if run.onStage != nil {
		now := time.Now()
		run.onStage(StageKernels, now.Sub(stageStart))
		stageStart = now
	}

	res := Result{
		App:          app.Abbr,
		Scheme:       mapper.Scheme(),
		Config:       cfg.Name,
		ExecTime:     end,
		Instructions: app.Instructions(),
		Requests:     app.Requests(),
	}
	for _, s := range sms {
		st := s.Stats()
		res.Transactions += st.Transactions
		res.L1.Accesses += st.L1.Accesses
		res.L1.Hits += st.L1.Hits
		res.L1.Misses += st.L1.Misses
		res.L1.Evictions += st.L1.Evictions
	}
	for _, sl := range sys.slices {
		st := sl.c.Stats()
		res.LLC.Accesses += st.Accesses
		res.LLC.Hits += st.Hits
		res.LLC.Misses += st.Misses
		res.LLC.Evictions += st.Evictions
		res.LLC.Writebacks += st.Writebacks
	}
	res.NoCAvgLatencyCycles = xbar.AvgPacketLatency()
	res.LLCParallelism = par.LLCLevel()
	res.ChannelParallelism = par.ChannelLevel()
	res.BankParallelism = par.BankLevel()
	res.DRAM = sys.dram.Stats()

	act := power.Activity{
		Activations: res.DRAM.Activations,
		Reads:       res.DRAM.Reads,
		Writes:      res.DRAM.Writes,
		Elapsed:     end,
	}
	res.DRAMPower = cfg.Power.DRAM.Power(act)
	res.GPUPowerW = cfg.Power.GPU.Power(res.Instructions, end)
	res.SystemW = res.DRAMPower.Total() + res.GPUPowerW
	res.PerfPerW = cfg.Power.PerfPerWatt(act, res.Instructions)

	if res.Instructions > 0 {
		kilo := float64(res.Instructions) / 1000
		res.APKI = float64(res.LLC.Accesses) / kilo
		res.MPKI = float64(res.LLC.Misses) / kilo
	}
	if run.onStage != nil {
		run.onStage(StageCollect, time.Since(stageStart))
	}
	return res, nil
}

// Run simulates one application under one mapping scheme with a fresh
// Runner. Callers running many simulations should reuse a Runner.
func Run(app *trace.App, mapper mapping.Mapper, cfg Config) Result {
	return NewRunner().Run(app, mapper, cfg)
}

// runKernel dispatches the kernel's TBs over the SMs (round-robin as
// slots free) and drains the engine — kernels serialize, so the drained
// engine is the kernel barrier. The drain runs in bounded batches with
// a cancellation poll between them; on cancellation the kernel's
// remaining events are abandoned (the next Run's engine Reset discards
// them) and ctx's error is returned.
func (run *Runner) runKernel(ctx context.Context, sms []*gpu.SM, k *trace.Kernel, cfg Config, mapAddr func(uint64) uint64) error {
	// Kernel boundaries are checkpoints too, so cancellation is caught
	// even when a whole kernel drains inside one event batch.
	if err := ctx.Err(); err != nil {
		return err
	}
	eng := &run.eng
	maxTBs := cfg.SM.MaxTBs
	if byWarps := cfg.MaxWarpsPerSM / k.WarpsPerTB; byWarps < maxTBs {
		maxTBs = byWarps
	}
	if maxTBs < 1 {
		maxTBs = 1
	}
	next := 0
	lineBytes := cfg.SM.L1.LineBytes
	var assign func(smIdx int)
	assign = func(smIdx int) {
		if next >= len(k.TBs) {
			return
		}
		tb := &k.TBs[next]
		next++
		progs := gpu.BuildProgramsInto(run.getProgs(), &run.coal, tb, k.WarpsPerTB, lineBytes, mapAddr)
		// The one closure per TB launch below recycles the program
		// buffer and refills the SM's slot; per-TB allocations are noise
		// next to the TB's own request traffic.
		sms[smIdx].LaunchTB(progs, k.ComputeGapCycles, func(sim.Time) {
			run.putProgs(progs)
			assign(smIdx)
		})
	}
	// Initial dispatch is round-robin, one TB per SM per pass, exactly
	// like the hardware TB scheduler: consecutive TB IDs land on
	// different SMs, which is what makes the entropy window w ≈ #SMs
	// (Section III-A). Each completion then refills its own SM's slot.
	eng.At(eng.Now(), func() {
		for pass := 0; pass < maxTBs && next < len(k.TBs); pass++ {
			for i := range sms {
				if sms[i].ActiveTBs() < maxTBs && next < len(k.TBs) {
					assign(i)
				}
			}
		}
	})
	for !eng.RunBounded(checkpointEvents) {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}
