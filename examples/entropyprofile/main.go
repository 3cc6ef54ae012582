// Entropyprofile shows how to analyze *your own* application trace with
// the window-based entropy metric, detect an entropy valley, and verify
// that a mapping scheme removes it — the workflow an architect would use
// before committing a BIM to silicon.
//
// The example builds a hand-written trace for a column-major 5-point
// stencil (the kind of kernel the paper's Section II warns about), not
// one of the packaged benchmarks. A second part profiles the same
// stencil as a *streaming* source at whatever size you ask for —
// including traces far larger than RAM — at constant memory. A third
// part packs that stream into the VTRC binary container (without ever
// materializing it) and re-profiles it through the mmap zero-copy
// path: the on-disk file can exceed RAM, the heap stays flat, and the
// canonical content hash proves the packed trace is the same trace.
//
//	go run ./examples/entropyprofile               # quick default
//	go run ./examples/entropyprofile 2000000000    # 2G requests (a 32 GB trace), flat memory
package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"

	"valleymap"
)

// buildStencilTrace emits a kernel whose TBs sweep a 2048-column matrix
// column by column: thread t touches row t (stride 8 KB) and its north /
// south neighbors, one column per TB.
func buildStencilTrace() *valleymap.App {
	const rowBytes = 8192
	app := &valleymap.App{
		Name: "custom column stencil", Abbr: "STEN", Valley: true, InsnPerAccess: 35,
	}
	k := valleymap.Kernel{Name: "stencil", WarpsPerTB: 2, ComputeGapCycles: 250}
	for tb := 0; tb < 48; tb++ {
		var reqs []valleymap.Request
		threads := 64 - tb%7 // ragged boundary TBs
		for t := 0; t < threads; t++ {
			base := uint64(1<<26) + uint64(tb)*4 + uint64(t)*rowBytes
			for _, off := range []uint64{0, rowBytes, 2 * rowBytes} {
				reqs = append(reqs, valleymap.Request{
					Addr: base + off, Kind: valleymap.Read, Warp: int32(t / 32),
				})
			}
			reqs = append(reqs, valleymap.Request{
				Addr: base + 1<<27, Kind: valleymap.Write, Warp: int32(t / 32),
			})
		}
		k.TBs = append(k.TBs, valleymap.TB{ID: tb, Requests: reqs})
	}
	app.Kernels = []valleymap.Kernel{k}
	return app
}

// valley applies Figure 5's channel/bank rule on the Hynix GDDR5
// layout: a dead channel bit, or two dead bank bits, below harvestable
// entropy.
func valley(p valleymap.Profile) bool {
	l := valleymap.HynixGDDR5()
	return p.ChannelBankValley(l.FieldBits(valleymap.FieldChannel), l.FieldBits(valleymap.FieldBank), valleymap.ValleyLow, valleymap.ValleyHigh)
}

func spark(p valleymap.Profile) string {
	var sb strings.Builder
	for b := 29; b >= 6; b-- {
		sb.WriteByte("_.:-=+*#%@"[int(p.PerBit[b]*9.999)])
	}
	return sb.String()
}

func main() {
	app := buildStencilTrace()
	if err := app.Validate(30); err != nil {
		panic(err)
	}
	chBank := []int{8, 9, 10, 11, 12, 13}
	layout := valleymap.HynixGDDR5()

	fmt.Printf("trace: %s, %d requests\n\n", app.Name, app.Requests())
	fmt.Println("entropy per bit (29 left ... 6 right), low=_ high=@")

	prof := valleymap.AnalyzeApp(app, valleymap.AnalysisOptions{})
	fmt.Printf("  %-6s %s  min(ch+bank)=%.2f valley=%v\n",
		"BASE", spark(prof), prof.Min(chBank), valley(prof))

	// Try every scheme and report which ones fill the valley.
	best := valleymap.Scheme("")
	bestMin := -1.0
	for _, s := range valleymap.Schemes()[1:] {
		m := valleymap.NewMapper(s, layout, 1)
		p := valleymap.AnalyzeApp(app, valleymap.AnalysisOptions{Transform: m.Map})
		fmt.Printf("  %-6s %s  min(ch+bank)=%.2f\n", s, spark(p), p.Min(chBank))
		if p.Min(chBank) > bestMin {
			bestMin = p.Min(chBank)
			best = s
		}
	}

	fmt.Printf("\nbest channel/bank entropy: %s (min %.2f)\n", best, bestMin)

	// Confirm with the simulator that the entropy win is a performance win.
	cfg := valleymap.BaselineConfig()
	base := valleymap.Simulate(app, valleymap.NewMapper(valleymap.BASE, layout, 1), cfg)
	pae := valleymap.Simulate(app, valleymap.NewMapper(valleymap.PAE, layout, 1), cfg)
	fmt.Printf("simulated: BASE %v, PAE %v -> %.2fx speedup, DRAM power %.1f -> %.1f W\n",
		base.ExecTime, pae.ExecTime, float64(base.ExecTime)/float64(pae.ExecTime),
		base.DRAMPower.Total(), pae.DRAMPower.Total())

	streamHuge()
}

// ---------------------------------------------------------------------
// Part 2: streaming a larger-than-RAM trace at constant memory
// ---------------------------------------------------------------------

// hugeStencil is a custom TraceSource: the same column stencil, scaled
// to an arbitrary TB count. Requests are regenerated per pass into one
// reused buffer, so the trace never exists in memory — only the current
// TB does.
type hugeStencil struct{ tbs int }

func (h hugeStencil) Info() valleymap.TraceSourceInfo {
	return valleymap.TraceSourceInfo{Name: "synthetic giant stencil", Abbr: "GIANT", Valley: true, InsnPerAccess: 35}
}

func (h hugeStencil) Stream() valleymap.TraceStream { return &hugeStream{tbs: h.tbs} }

type hugeStream struct {
	tbs, tb int
	started bool
	hdr     valleymap.TraceKernelInfo
	batch   valleymap.TraceBatch
	reqs    []valleymap.Request
}

func (s *hugeStream) Next() (*valleymap.TraceBatch, error) {
	if !s.started {
		s.started = true
		s.hdr = valleymap.TraceKernelInfo{Name: "stencil", WarpsPerTB: 2, ComputeGapCycles: 250}
		s.batch = valleymap.TraceBatch{Kernel: &s.hdr, TBID: -1}
		return &s.batch, nil
	}
	if s.tb >= s.tbs {
		return nil, io.EOF
	}
	const rowBytes = 8192
	s.reqs = s.reqs[:0]
	threads := 64 - s.tb%7
	for t := 0; t < threads; t++ {
		base := (uint64(1<<26) + uint64(s.tb)*4 + uint64(t)*rowBytes) & (1<<30 - 1)
		for _, off := range []uint64{0, rowBytes, 2 * rowBytes} {
			s.reqs = append(s.reqs, valleymap.Request{
				Addr: (base + off) & (1<<30 - 1), Kind: valleymap.Read, Warp: int32(t / 32),
			})
		}
		s.reqs = append(s.reqs, valleymap.Request{
			Addr: (base + 1<<27) & (1<<30 - 1), Kind: valleymap.Write, Warp: int32(t / 32),
		})
	}
	s.batch = valleymap.TraceBatch{TBID: s.tb, TBStart: true, Requests: s.reqs}
	s.tb++
	return &s.batch, nil
}

// streamHuge profiles a synthetic trace of any size through the
// streaming pipeline and reports how flat the heap stayed. The default
// is sized for a quick run; pass a request count on the command line to
// stream a trace that could never fit in RAM (memory use is unchanged —
// O(window × bits) accumulator state plus one TB).
func streamHuge() {
	requests := 4 << 20
	if len(os.Args) > 1 {
		if n, err := strconv.Atoi(os.Args[1]); err == nil && n > 0 {
			requests = n
		}
	}
	const reqsPerTB = 244 // ≈ mean of the ragged 61..64-thread TBs × 4 accesses
	src := hugeStencil{tbs: requests / reqsPerTB}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	prof, err := valleymap.AnalyzeSource(src, valleymap.AnalysisOptions{})
	if err != nil {
		panic(err)
	}
	runtime.ReadMemStats(&m1)

	grew := 0.0
	if m1.HeapAlloc > m0.HeapAlloc {
		grew = float64(m1.HeapAlloc-m0.HeapAlloc) / (1 << 20)
	}
	materialized := float64(prof.Requests) * 16 / (1 << 30)
	fmt.Printf("\nstreamed %d coalesced requests (~%.1f GB if materialized per-thread) at constant memory:\n",
		prof.Requests, materialized*4) // ~4 per-thread accesses per transaction here
	fmt.Printf("  heap grew %.2f MB during the pass; valley intact: %v\n",
		grew, valley(prof))
	fmt.Printf("  %-6s %s\n", "GIANT", spark(prof))

	packAndMmap(src)
}

// ---------------------------------------------------------------------
// Part 3: pack the stream into the binary container, profile via mmap
// ---------------------------------------------------------------------

// packAndMmap is the capture-once / profile-forever flow: the generator
// stream is encoded straight to a VTRC file (O(one TB) memory — the
// trace is never materialized), then the file is mapped and profiled
// zero-copy. Because the file is a mapping, not heap, this works
// unchanged when the packed trace is larger than RAM: the kernel pages
// records in and out as the single sequential pass touches them.
func packAndMmap(src valleymap.TraceSource) {
	f, err := os.CreateTemp("", "stencil-*.vtrc")
	if err != nil {
		panic(err)
	}
	path := f.Name()
	defer os.Remove(path)
	if err := valleymap.WriteTraceBinaryStream(f, src.Stream()); err != nil {
		panic(err)
	}
	if err := f.Close(); err != nil {
		panic(err)
	}

	ms, err := valleymap.OpenTraceMmap(path)
	if err != nil {
		panic(err)
	}
	defer ms.Close()

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	prof, err := valleymap.AnalyzeSource(ms, valleymap.AnalysisOptions{})
	if err != nil {
		panic(err)
	}
	runtime.ReadMemStats(&m1)
	grew := 0.0
	if m1.HeapAlloc > m0.HeapAlloc {
		grew = float64(m1.HeapAlloc-m0.HeapAlloc) / (1 << 20)
	}

	fmt.Printf("\npacked the stream into VTRC (%.1f MB on disk, %d records) and re-profiled via mmap:\n",
		float64(ms.Bytes())/(1<<20), ms.Requests())
	fmt.Printf("  heap grew %.2f MB during the mmap pass; valley intact: %v\n",
		grew, valley(prof))
	fmt.Printf("  canonical hash %s (= the identity valleyd caches by, CSV or binary)\n", ms.SHA256())
}
