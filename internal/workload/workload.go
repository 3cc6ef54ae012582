// Package workload synthesizes the memory-request traces of the 16
// GPU-compute benchmarks and 2 standalone kernels of Table II.
//
// The paper runs CUDA binaries (CUDA SDK, Rodinia, Parboil) under
// GPGPU-sim; we cannot. What the paper's results depend on is each
// benchmark's *address structure* — where the entropy valleys sit
// (Figure 5) — and its memory intensity. Each generator below therefore
// reproduces the documented access pattern of its benchmark (row-major
// streams, column-major strides, wavefronts, stencils, butterflies,
// irregular gathers) at a scaled-down footprint, with the paper's grouping
// preserved: the ten valley benchmarks (MT LU GS NW LPS SC SRAD2 DWT2D HS
// SP) exhibit entropy valleys overlapping the channel/bank bits of the
// Hynix map, and the six non-valley benchmarks (FWT NN SPMV LM MUM BFS)
// concentrate entropy in the low-order bits or spread it everywhere.
//
// Generators emit per-thread requests into a trace.Source, one TB at a
// time (Spec.Source); Spec.Build drains that stream into a materialized
// *trace.App for consumers that need random access. Analysis and
// simulation coalesce requests into 128 B transactions
// (trace.CoalesceStream / trace.CoalesceApp). Thread counts are
// deliberately "ragged" per TB — real kernels have boundary tiles and
// predicated-off threads — which is what gives intra-TB-varying bits
// distinct BVR values across TBs (Section III's intra-TB entropy).
package workload

import (
	"fmt"
	"io"
	"math/rand"
	"strings"

	"valleymap/internal/trace"
)

// Scale selects the trace size. Entropy structure is scale-invariant;
// only TB counts and request totals change.
type Scale int

const (
	// Tiny is for unit tests: a few thousand requests per app.
	Tiny Scale = iota
	// Small is for benchmarks and quick experiments.
	Small
	// Full is the default for the experiment harness.
	Full
)

func (s Scale) String() string {
	switch s {
	case Tiny:
		return "tiny"
	case Small:
		return "small"
	default:
		return "full"
	}
}

// ParseScale resolves a case-insensitive scale name, as CLI flags and
// service requests spell it. An empty name means Small.
func ParseScale(name string) (Scale, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "tiny":
		return Tiny, nil
	case "", "small":
		return Small, nil
	case "full":
		return Full, nil
	}
	return 0, fmt.Errorf("unknown scale %q (want tiny, small or full)", name)
}

// tbs scales a full-scale TB count down for smaller scales, keeping at
// least minTBs so that 12-TB entropy windows stay meaningful.
func (s Scale) tbs(full int) int {
	const minTBs = 14
	n := full
	switch s {
	case Tiny:
		n = full / 6
	case Small:
		n = full / 2
	}
	if n < minTBs {
		n = minTBs
	}
	return n
}

// kernels scales a kernel count down (at least 1).
func (s Scale) kernels(full int) int {
	n := full
	switch s {
	case Tiny:
		n = full / 4
	case Small:
		n = full / 2
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Spec describes one workload of the study.
type Spec struct {
	Abbr   string
	Name   string
	Suite  string
	Valley bool // top group of Table II (entropy-valley behavior)
	// PaperAPKI/PaperMPKI are Table II's reported LLC accesses/misses
	// per kilo-instruction, kept for reporting alongside measured values.
	PaperAPKI, PaperMPKI float64
	// PaperKernels is Table II's kernel-launch count at full app size.
	PaperKernels int
	// Source streams the trace TB by TB: the generator's native form.
	// Every Stream call re-runs the (deterministic) emitters, so a
	// Source pass holds one TB in memory at a time, not the trace.
	Source func(Scale) trace.Source
	// Build materializes the whole trace — a thin adapter draining
	// Source, kept for consumers that need random access (the
	// simulator); one-pass consumers (profiling) should stream.
	Build func(Scale) *trace.App
}

// appGen is the lazy form of a workload trace: kernel descriptors whose
// per-TB emitters run on demand. Builders construct appGens; Spec.Source
// streams them and Spec.Build drains that stream into an *App.
type appGen struct {
	Name          string
	Abbr          string
	Valley        bool
	InsnPerAccess float64
	Kernels       []kernelGen
}

// kernelGen describes one kernel launch without running its emitters.
type kernelGen struct {
	name         string
	numTBs       int
	threadsPerTB int
	gapCycles    int
	emit         func(e *reqEmitter, tb int)
}

func (k *kernelGen) info() trace.KernelInfo {
	return trace.KernelInfo{
		Name:             k.name,
		WarpsPerTB:       (k.threadsPerTB + 31) / 32,
		ComputeGapCycles: k.gapCycles,
	}
}

func (g *appGen) source() trace.Source { return genSource{g: g} }

type genSource struct{ g *appGen }

func (s genSource) Info() trace.SourceInfo {
	return trace.SourceInfo{Name: s.g.Name, Abbr: s.g.Abbr, Valley: s.g.Valley, InsnPerAccess: s.g.InsnPerAccess}
}

func (s genSource) Stream() trace.Stream { return &genStream{g: s.g} }

// genStream emits one kernel header batch per kernel and one batch per
// TB, regenerating requests into a reused buffer — O(TB) memory per
// pass regardless of trace size.
type genStream struct {
	g       *appGen
	ki, tb  int
	started bool
	hdr     trace.KernelInfo
	batch   trace.Batch
	em      reqEmitter
}

func (s *genStream) Next() (*trace.Batch, error) {
	for s.ki < len(s.g.Kernels) {
		kg := &s.g.Kernels[s.ki]
		if !s.started {
			s.started = true
			s.hdr = kg.info()
			s.batch = trace.Batch{Kernel: &s.hdr, KernelIndex: s.ki, TBID: -1}
			return &s.batch, nil
		}
		if s.tb >= kg.numTBs {
			s.ki++
			s.tb = 0
			s.started = false
			continue
		}
		s.em.reqs = s.em.reqs[:0]
		kg.emit(&s.em, s.tb)
		s.batch = trace.Batch{KernelIndex: s.ki, TBID: s.tb, TBStart: true, Requests: s.em.reqs}
		s.tb++
		return &s.batch, nil
	}
	return nil, io.EOF
}

// reqEmitter collects requests for one TB.
type reqEmitter struct {
	reqs []trace.Request
}

func (e *reqEmitter) add(addr uint64, kind trace.Kind, warp int32) {
	e.reqs = append(e.reqs, trace.Request{Addr: addr & ((1 << 30) - 1), Kind: kind, Warp: warp})
}

// ragged returns the effective thread count of a TB: nominal threads minus
// a TB-dependent shortfall modeling boundary tiles and predication. The
// shortfall both changes the number of coalesced lines (so line-offset
// bits get distinct BVRs across TBs) and makes intra-TB bit ratios differ
// slightly between TBs.
func ragged(threads, tb int) int {
	n := threads - (tb%3)*threads/4 - tb%5
	if n < 1 {
		n = 1
	}
	return n
}

// stridedTB emits one request per (effective) thread per iteration:
//
//	addr = base + tb*tbStride + thread*thrStride + iter*iterStride
//
// This is the workhorse for regular dense kernels.
func stridedTB(e *reqEmitter, base uint64, tb int, tbStride, thrStride, iterStride int64, threads, iters int, kind trace.Kind) {
	n := ragged(threads, tb)
	for it := 0; it < iters; it++ {
		for t := 0; t < n; t++ {
			a := int64(base) + int64(tb)*tbStride + int64(t)*thrStride + int64(it)*iterStride
			e.add(uint64(a), kind, int32(t/32))
		}
	}
}

// panelTB emits the column-major panel pattern of transpose-style kernels:
// the TB covers `threads` matrix rows of one 128 B line-column (stride
// rowStride between rows), iterating over cols consecutive 4 B elements.
// The grid advances through rbCount row-blocks quickly and line-columns
// slowly, so within a scheduling window the line-column bits (7 and up,
// through the channel/bank field) are pinned — the entropy valley — while
// row bits vary both intra-TB (thread index) and inter-TB (row block).
// Concurrent TBs in adjacent line-columns touch the same DRAM rows, which
// is where the row-buffer locality that FAE destroys comes from.
func panelTB(e *reqEmitter, base uint64, tb int, rowStride int64, threads, cols, rbCount int, kind trace.Kind) {
	lineCol := int64(tb / rbCount)
	rowBlock := int64(tb % rbCount)
	b := int64(base) + lineCol*128 + rowBlock*int64(threads)*rowStride
	n := ragged(threads, tb)
	for c := 0; c < cols; c++ {
		for t := 0; t < n; t++ {
			e.add(uint64(b+int64(c)*4+int64(t)*rowStride), kind, int32(t/32))
		}
	}
}

// gatherTB emits irregular accesses: each thread performs iters gathers at
// uniformly random block-aligned offsets inside a region.
func gatherTB(e *reqEmitter, rng *rand.Rand, base uint64, region int64, threads, iters int, kind trace.Kind) {
	for it := 0; it < iters; it++ {
		for t := 0; t < threads; t++ {
			off := rng.Int63n(region) &^ 63
			e.add(base+uint64(off), kind, int32(t/32))
		}
	}
}

// kernel wraps a per-TB emitter function as a lazy kernel descriptor;
// its requests are only generated when a Source pass (or a Build drain)
// reaches the kernel.
func kernel(name string, numTBs, threadsPerTB, gapCycles int, emit func(e *reqEmitter, tb int)) kernelGen {
	return kernelGen{name: name, numTBs: numTBs, threadsPerTB: threadsPerTB, gapCycles: gapCycles, emit: emit}
}

// Base addresses place each array in a distinct 16 MB arena so that row
// bits differ across arrays; the 30-bit space holds 64 arenas.
func arena(i int) uint64 { return uint64(i) << 24 }

// ---------------------------------------------------------------------
// Valley benchmarks (Table II, top group)
// ---------------------------------------------------------------------

// buildMT models CUDA SDK Transpose on a 4096×4096 float matrix (16 KB
// rows): row-major passes stream lines, column-major passes stride one
// row per thread. Column walks advance 4 B per TB, so bits 8–13 are
// controlled only by the slowly-drifting column index — the classic
// entropy valley over the channel (8–9) and bank (10–13) bits
// (Figures 5a, 10).
func buildMT(s Scale) *appGen {
	const rowBytes = 16384 // 4096 floats per matrix row
	app := &appGen{Name: "Transpose", Abbr: "MT", Valley: true, InsnPerAccess: 26}
	app.Kernels = append(app.Kernels,
		kernel("read_rowmajor", s.tbs(48), 128, 220, func(e *reqEmitter, tb int) {
			stridedTB(e, arena(1), tb, 128*4, 4, 0, 128, 1, trace.Read)
		}),
		kernel("write_colmajor", s.tbs(96), 128, 220, func(e *reqEmitter, tb int) {
			panelTB(e, arena(2), tb, rowBytes, 128, 4, 12, trace.Write)
		}),
		kernel("read_colmajor", s.tbs(96), 128, 220, func(e *reqEmitter, tb int) {
			panelTB(e, arena(3), tb, rowBytes, 128, 4, 12, trace.Read)
		}),
		kernel("write_rowmajor", s.tbs(48), 128, 220, func(e *reqEmitter, tb int) {
			stridedTB(e, arena(4), tb, 128*4, 4, 0, 128, 1, trace.Write)
		}),
	)
	return app
}

// buildLU models Rodinia LU Decomposition: per-step kernels sweep the
// columns of a shrinking trailing submatrix of a 2048×2048 matrix (8 KB
// rows). Thread-level stride is one row (bits 13+), the column index
// drifts 4 B per TB, so bits 8–12 form a deep valley that moves with the
// diagonal as the factorization proceeds.
func buildLU(s Scale) *appGen {
	const rowBytes = 8192
	threads := 128
	app := &appGen{Name: "LU Decomposition", Abbr: "LU", Valley: true, InsnPerAccess: 22}
	nk := s.kernels(16)
	for j := 0; j < nk; j++ {
		j := j
		cols := s.tbs(56 - 2*j)
		diag := uint64(j) * (rowBytes + 4) * 2
		app.Kernels = append(app.Kernels,
			kernel(fmt.Sprintf("step%d_col", j), cols, threads, 200, func(e *reqEmitter, tb int) {
				panelTB(e, arena(5)+diag, tb, rowBytes, threads, 2, 12, trace.Read)
				panelTB(e, arena(6)+diag, tb, rowBytes, threads/2, 2, 12, trace.Write)
			}),
		)
	}
	return app
}

// buildGS models Rodinia Gaussian elimination on a small 256 KB matrix
// (256 rows of 1 KB) that fits the 512 KB LLC: column-strided sweeps with
// heavy reuse across the many Fan1/Fan2 kernel launches, which is why
// Table II reports APKI 9.09 but MPKI 0.01. Thread stride is one 1 KB row
// (bits 10+), so the valley covers only channel bits 8–9.
func buildGS(s Scale) *appGen {
	const rowBytes = 1024
	threads := 64
	app := &appGen{Name: "Gaussian", Abbr: "GS", Valley: true, InsnPerAccess: 30}
	nk := s.kernels(12)
	for j := 0; j < nk; j++ {
		app.Kernels = append(app.Kernels,
			kernel(fmt.Sprintf("fan%d", j), s.tbs(36), threads, 150, func(e *reqEmitter, tb int) {
				stridedTB(e, arena(7), tb, 4, rowBytes, 0, threads, 2, trace.Read)
				stridedTB(e, arena(7), tb, 4, rowBytes, 0, threads/2, 1, trace.Write)
			}),
		)
	}
	return app
}

// buildNW models Rodinia Needleman-Wunsch: anti-diagonal wavefronts over a
// 1024×1024 score matrix. Threads step one row plus one element
// (stride 4100 B), putting entropy at bits 2–7 and 12+, while the TB base
// drifts 16 B per TB — bits 8–11 stay pinned (Figure 5d's deep valley).
func buildNW(s Scale) *appGen {
	const diagStride = 4096 + 4
	threads := 64
	app := &appGen{Name: "Needle", Abbr: "NW", Valley: true, InsnPerAccess: 40}
	nk := s.kernels(12)
	for j := 0; j < nk; j++ {
		j := j
		app.Kernels = append(app.Kernels,
			kernel(fmt.Sprintf("diag%d", j), s.tbs(28), threads, 260, func(e *reqEmitter, tb int) {
				base := arena(9) + uint64(j)*1<<18
				stridedTB(e, base, tb, 16, diagStride, 0, threads, 1, trace.Read)
				stridedTB(e, base+4, tb, 16, diagStride, 0, threads, 1, trace.Write)
			}),
		)
	}
	return app
}

// buildLPS models the Laplace 3D solver: x-lines of 64 threads (256 B,
// bits 2–7) with y/z neighbor offsets at 1 KB and 256 KB; TBs advance four
// rows (4 KB). Channel bits 8–9 never vary — the deep valley of
// Figure 5e.
func buildLPS(s Scale) *appGen {
	const yStride = 1024      // 256 floats per x-row
	const zStride = 256 << 10 // one plane
	threads := 64
	app := &appGen{Name: "Laplace", Abbr: "LPS", Valley: true, InsnPerAccess: 55}
	emit := func(e *reqEmitter, tb int) {
		base := arena(11) + 1<<21 + uint64(tb)*yStride*4
		n := ragged(threads, tb)
		// Center read, four neighbors, one write.
		for _, off := range []int64{0, yStride, -yStride, zStride, -zStride} {
			for t := 0; t < n; t++ {
				e.add(uint64(int64(base)+off+int64(t)*4), trace.Read, int32(t/32))
			}
		}
		for t := 0; t < n; t++ {
			e.add(base+1<<22+uint64(t)*4, trace.Write, int32(t/32))
		}
	}
	app.Kernels = append(app.Kernels,
		kernel("jacobi_even", s.tbs(60), threads, 320, emit),
		kernel("jacobi_odd", s.tbs(60), threads, 320, emit),
	)
	return app
}

// buildSC models Rodinia StreamCluster: structure-of-arrays point data.
// Each TB owns an 8 KB chunk of points (bits 13+) and walks 6 dimension
// planes 2 MB apart; threads cover 256 B. Bits 8–12 never vary.
func buildSC(s Scale) *appGen {
	threads := 64
	app := &appGen{Name: "StreamCluster", Abbr: "SC", Valley: true, InsnPerAccess: 34}
	nk := s.kernels(8)
	for j := 0; j < nk; j++ {
		app.Kernels = append(app.Kernels,
			kernel(fmt.Sprintf("pgain%d", j), s.tbs(32), threads, 240, func(e *reqEmitter, tb int) {
				stridedTB(e, arena(13), tb, 8192, 4, 2<<20, threads, 6, trace.Read)
				stridedTB(e, arena(14), tb, 8192, 4, 0, threads/2, 1, trace.Write)
			}),
		)
	}
	return app
}

// buildSRAD2 models Rodinia SRAD v2: a column-strided gradient kernel over
// a 2048×2048 image (8 KB rows) followed by a row-per-TB update kernel,
// twice. The standalone SRAD2K1 kernel (Figure 5h) is the gradient kernel
// alone; its profile resembles the application's, as the paper notes.
func buildSRAD2(s Scale) *appGen {
	app := &appGen{Name: "Srad v2", Abbr: "SRAD2", Valley: true, InsnPerAccess: 48}
	for iter := 0; iter < 2; iter++ {
		app.Kernels = append(app.Kernels, srad2GradientKernel(s, iter), srad2UpdateKernel(s, iter))
	}
	return app
}

func srad2GradientKernel(s Scale, iter int) kernelGen {
	const rowBytes = 8192
	threads := 128
	return kernel(fmt.Sprintf("srad_grad%d", iter), s.tbs(64), threads, 280, func(e *reqEmitter, tb int) {
		panelTB(e, arena(16), tb, rowBytes, threads, 2, 12, trace.Read)
		panelTB(e, arena(17), tb, rowBytes, threads/2, 2, 12, trace.Write)
	})
}

func srad2UpdateKernel(s Scale, iter int) kernelGen {
	const rowBytes = 16384
	threads := 128
	return kernel(fmt.Sprintf("srad_update%d", iter), s.tbs(48), threads, 280, func(e *reqEmitter, tb int) {
		stridedTB(e, arena(18), tb, rowBytes, 4, 0, threads, 1, trace.Read)
		stridedTB(e, arena(19), tb, rowBytes, 4, 0, threads, 1, trace.Write)
	})
}

// SRAD2K1 is the standalone gradient kernel of Figure 5h.
func buildSRAD2K1(s Scale) *appGen {
	return &appGen{
		Name: "Srad v2 kernel 1", Abbr: "SRAD2K1", Valley: true, InsnPerAccess: 48,
		Kernels: []kernelGen{srad2GradientKernel(s, 0)},
	}
}

// buildDWT2D models Rodinia DWT2D: alternating vertical (row-strided) and
// horizontal (row-per-TB contiguous) wavelet passes. Each level works on
// rows subsampled 2:1, so the vertical stride doubles per level — 4 KB,
// 8 KB, 16 KB, 32 KB — placing a different narrow valley per kernel and a
// broader valley in the aggregate (Figures 5i/5j).
func buildDWT2D(s Scale) *appGen {
	app := &appGen{Name: "DWT2D", Abbr: "DWT2D", Valley: true, InsnPerAccess: 38}
	nk := s.kernels(10)
	for j := 0; j < nk; j++ {
		level := j / 2 % 4
		if j%2 == 0 {
			app.Kernels = append(app.Kernels, dwt2dVerticalKernel(s, j, level))
		} else {
			threads := 64
			app.Kernels = append(app.Kernels,
				kernel(fmt.Sprintf("dwt_h%d", j), s.tbs(32), threads, 240, func(e *reqEmitter, tb int) {
					stridedTB(e, arena(21), tb, 16384, 4, 0, threads, 1, trace.Read)
					stridedTB(e, arena(22), tb, 16384, 4, 0, threads, 1, trace.Write)
				}),
			)
		}
	}
	return app
}

func dwt2dVerticalKernel(s Scale, j, level int) kernelGen {
	// Each wavelet level works on rows subsampled 2:1, doubling the
	// effective row stride and widening the aggregate valley.
	stride := int64(4096 << uint(level))
	threads := 128
	return kernel(fmt.Sprintf("dwt_v%d", j), s.tbs(32), threads, 240, func(e *reqEmitter, tb int) {
		panelTB(e, arena(20), tb, stride, threads, 2, 12, trace.Read)
		panelTB(e, arena(20)+uint64(stride)/2, tb, stride, threads, 2, 12, trace.Write)
	})
}

// DWT2DK1 is the standalone level-0 vertical pass of Figure 5j.
func buildDWT2DK1(s Scale) *appGen {
	return &appGen{
		Name: "DWT2D kernel 1", Abbr: "DWT2DK1", Valley: true, InsnPerAccess: 38,
		Kernels: []kernelGen{dwt2dVerticalKernel(s, 0, 0)},
	}
}

// buildHS models Rodinia Hotspot: a tiled 2D stencil over a 512×512 grid
// (2 KB rows). Tiles advance down columns (32 KB per TB), so bits 8–10
// and 12–14 are pinned by the slow tile-column index; the tiny 0.08 MPKI
// comes from high L1/LLC reuse of the stencil neighbors.
func buildHS(s Scale) *appGen {
	const rowBytes = 2048
	threads := 64
	app := &appGen{Name: "Hotspot", Abbr: "HS", Valley: true, InsnPerAccess: 120}
	app.Kernels = append(app.Kernels,
		kernel("hotspot", s.tbs(96), threads, 520, func(e *reqEmitter, tb int) {
			// The 4096+256 margin keeps the -rowBytes/-4 neighbors from
			// borrowing through the channel/bank bits.
			base := arena(24) + 1<<20 + 4096 + 256 + uint64(tb)*16*rowBytes
			n := ragged(threads, tb)
			for _, off := range []int64{0, rowBytes, -rowBytes, 4, -4} {
				for t := 0; t < n; t++ {
					e.add(uint64(int64(base)+off+int64(t)*4), trace.Read, int32(t/32))
				}
			}
			for t := 0; t < n; t++ {
				e.add(base+1<<21+uint64(t)*4, trace.Write, int32(t/32))
			}
		}),
	)
	return app
}

// buildSP models CUDA SDK Scalar Product: each TB reduces a 64 KB-aligned
// slice of two vectors with a 32 KB grid-stride loop; thread bits cover
// 2–6 and slice bits 16+, leaving bits 7–14 dead — a wide valley with
// almost no locality (APKI ≈ MPKI in Table II).
func buildSP(s Scale) *appGen {
	threads := 32
	app := &appGen{Name: "Scalar Product", Abbr: "SP", Valley: true, InsnPerAccess: 28}
	app.Kernels = append(app.Kernels,
		kernel("dotprod", s.tbs(112), threads, 180, func(e *reqEmitter, tb int) {
			stridedTB(e, arena(26), tb, 64<<10, 4, 32<<10, threads, 2, trace.Read)
			stridedTB(e, arena(27), tb, 64<<10, 4, 32<<10, threads, 2, trace.Read)
			stridedTB(e, arena(28), tb, 64, 4, 0, 16, 1, trace.Write)
		}),
	)
	return app
}

// ---------------------------------------------------------------------
// Non-valley benchmarks (Table II, bottom group)
// ---------------------------------------------------------------------

// buildFWT models CUDA SDK Fast Walsh Transform: butterfly kernels whose
// partner offset doubles per stage, on top of contiguous thread indexing.
// Low address bits always carry the entropy: no valley.
func buildFWT(s Scale) *appGen {
	threads := 128
	app := &appGen{Name: "Fast Walsh Transform", Abbr: "FWT", Valley: false, InsnPerAccess: 44}
	nk := s.kernels(8)
	for j := 0; j < nk; j++ {
		stage := uint(j % 6)
		app.Kernels = append(app.Kernels,
			kernel(fmt.Sprintf("fwt%d", j), s.tbs(40), threads, 260, func(e *reqEmitter, tb int) {
				n := ragged(threads, tb)
				for t := 0; t < n; t++ {
					idx := uint64(tb*threads + t)
					a := arena(30) + idx*4
					b := arena(30) + (idx^(1<<(stage+2)))*4
					e.add(a, trace.Read, int32(t/32))
					e.add(b, trace.Read, int32(t/32))
					e.add(a, trace.Write, int32(t/32))
				}
			}),
		)
	}
	return app
}

// buildNN models the nearest-neighbor microbenchmark: short contiguous
// streams over a few MB with modest reuse.
func buildNN(s Scale) *appGen {
	threads := 128
	app := &appGen{Name: "NN", Abbr: "NN", Valley: false, InsnPerAccess: 90}
	nk := s.kernels(4)
	for j := 0; j < nk; j++ {
		j := j
		app.Kernels = append(app.Kernels,
			kernel(fmt.Sprintf("nn%d", j), s.tbs(40), threads, 420, func(e *reqEmitter, tb int) {
				base := arena(32) + uint64(j%2)<<20
				stridedTB(e, base, tb, int64(threads)*4, 4, 0, threads, 2, trace.Read)
				stridedTB(e, arena(33), tb, int64(threads)*4, 4, 0, threads/4, 1, trace.Write)
			}),
		)
	}
	return app
}

// buildSPMV models Parboil SpMV: contiguous row-pointer reads plus
// uniformly random column gathers over a 16 MB vector — entropy in every
// bit.
func buildSPMV(s Scale) *appGen {
	threads := 64
	app := &appGen{Name: "SPMV", Abbr: "SPMV", Valley: false, InsnPerAccess: 36}
	nk := s.kernels(4)
	for j := 0; j < nk; j++ {
		j := j
		app.Kernels = append(app.Kernels,
			kernel(fmt.Sprintf("spmv%d", j), s.tbs(48), threads, 200, func(e *reqEmitter, tb int) {
				rng := rand.New(rand.NewSource(int64(j)<<32 | int64(tb)))
				stridedTB(e, arena(34), tb, int64(threads)*4, 4, 0, threads, 1, trace.Read)
				gatherTB(e, rng, arena(35), 16<<20, threads, 2, trace.Read)
				stridedTB(e, arena(36), tb, int64(threads)*4, 4, 0, threads/2, 1, trace.Write)
			}),
		)
	}
	return app
}

// buildLM models Rodinia LavaMD: each TB streams its own 1 KB particle box
// plus neighbor boxes inside a 256 KB LLC-resident region — very high
// APKI, almost no LLC misses.
func buildLM(s Scale) *appGen {
	threads := 256
	app := &appGen{Name: "LavaMD", Abbr: "LM", Valley: false, InsnPerAccess: 18}
	app.Kernels = append(app.Kernels,
		kernel("lavamd", s.tbs(64), threads, 160, func(e *reqEmitter, tb int) {
			const region = 256 << 10
			own := arena(38) + uint64(tb*4096)%region
			// Walk 1 KB quarters of the 4 KB box, with the quarter mix
			// rotating per TB, so bits 10-11 carry entropy (a box holds
			// 128 particles of 32 B and TBs start at their own particle).
			for rep := 0; rep < 3; rep++ {
				stridedTB(e, own+uint64((rep+tb)&3)<<10, tb, 0, 4, 0, threads, 1, trace.Read)
			}
			for nb := 1; nb <= 3; nb++ {
				nbase := arena(38) + uint64((tb+nb*7)*4096)%region
				stridedTB(e, nbase+uint64((nb+tb*3)&3)<<10, tb, 0, 4, 0, threads, 1, trace.Read)
			}
			stridedTB(e, own+uint64(tb&3)<<10, tb, 0, 4, 0, threads/2, 1, trace.Write)
		}),
	)
	return app
}

// buildMUM models MUMmerGPU: suffix-tree pointer chasing — uniformly
// random reads over 64 MB with no locality whatsoever.
func buildMUM(s Scale) *appGen {
	threads := 64
	app := &appGen{Name: "MUMmerGPU", Abbr: "MUM", Valley: false, InsnPerAccess: 14}
	for j := 0; j < 2; j++ {
		j := j
		app.Kernels = append(app.Kernels,
			kernel(fmt.Sprintf("mummer%d", j), s.tbs(64), threads, 90, func(e *reqEmitter, tb int) {
				rng := rand.New(rand.NewSource(int64(j)<<40 | int64(tb)*977))
				gatherTB(e, rng, arena(40), 64<<20, threads, 4, trace.Read)
			}),
		)
	}
	return app
}

// buildBFS models Rodinia BFS: frontier reads (contiguous) and random
// neighbor/visited gathers over 32 MB across the level kernels.
func buildBFS(s Scale) *appGen {
	threads := 64
	app := &appGen{Name: "BFS", Abbr: "BFS", Valley: false, InsnPerAccess: 16}
	nk := s.kernels(8)
	for j := 0; j < nk; j++ {
		j := j
		app.Kernels = append(app.Kernels,
			kernel(fmt.Sprintf("bfs_level%d", j), s.tbs(48), threads, 80, func(e *reqEmitter, tb int) {
				rng := rand.New(rand.NewSource(int64(j)<<36 | int64(tb)*131))
				stridedTB(e, arena(44), tb, int64(threads)*4, 4, 0, threads, 1, trace.Read)
				gatherTB(e, rng, arena(45), 32<<20, threads, 2, trace.Read)
				gatherTB(e, rng, arena(46), 32<<20, threads/2, 1, trace.Write)
			}),
		)
	}
	return app
}

// ---------------------------------------------------------------------
// Catalog
// ---------------------------------------------------------------------

// spec wires a lazy generator into a Spec: Source streams it, Build is
// the thin adapter that drains the stream into a materialized trace.
func spec(abbr, name, suite string, valley bool, apki, mpki float64, kernels int, gen func(Scale) *appGen) Spec {
	return Spec{
		Abbr: abbr, Name: name, Suite: suite, Valley: valley,
		PaperAPKI: apki, PaperMPKI: mpki, PaperKernels: kernels,
		Source: func(s Scale) trace.Source { return gen(s).source() },
		Build: func(s Scale) *trace.App {
			app, err := trace.Collect(gen(s).source())
			if err != nil {
				panic(fmt.Sprintf("workload %s: %v", abbr, err)) // generator streams cannot fail
			}
			return app
		},
	}
}

var catalog = []Spec{
	spec("MT", "Transpose", "CUDA SDK", true, 7.44, 5.69, 4, buildMT),
	spec("LU", "LU Decomposition", "CUDA SDK", true, 12.32, 1.97, 1022, buildLU),
	spec("GS", "Gaussian", "Rodinia", true, 9.09, 0.01, 510, buildGS),
	spec("NW", "Needle", "Rodinia", true, 5.25, 5.12, 255, buildNW),
	spec("LPS", "Laplace", "Wong et al.", true, 2.27, 1.66, 2, buildLPS),
	spec("SC", "StreamCluster", "Rodinia", true, 4.24, 3.58, 50, buildSC),
	spec("SRAD2", "Srad v2", "Rodinia", true, 3.29, 1.85, 4, buildSRAD2),
	spec("DWT2D", "DWT2D", "Rodinia", true, 1.56, 1.21, 10, buildDWT2D),
	spec("HS", "Hotspot", "Rodinia", true, 0.71, 0.08, 1, buildHS),
	spec("SP", "Scalar Product", "CUDA SDK", true, 2.17, 2.16, 1, buildSP),
	spec("FWT", "Fast Walsh Transform", "CUDA SDK", false, 2.69, 1.38, 22, buildFWT),
	spec("NN", "NN", "Wong et al.", false, 2.33, 0.2, 4, buildNN),
	spec("SPMV", "SPMV", "Parboil", false, 5.95, 2.75, 50, buildSPMV),
	spec("LM", "LavaMD", "Rodinia", false, 18.23, 0.01, 1, buildLM),
	spec("MUM", "MUMmerGPU", "Rodinia", false, 25.63, 22.53, 2, buildMUM),
	spec("BFS", "BFS", "Rodinia", false, 26.92, 18.14, 24, buildBFS),
}

var kernelSpecs = []Spec{
	spec("SRAD2K1", "Srad v2 kernel 1", "Rodinia", true, 3.29, 1.85, 1, buildSRAD2K1),
	spec("DWT2DK1", "DWT2D kernel 1", "Rodinia", true, 1.56, 1.21, 1, buildDWT2DK1),
}

// Catalog returns the 16 benchmarks of Table II in paper order.
func Catalog() []Spec { return append([]Spec(nil), catalog...) }

// StandaloneKernels returns the two per-kernel profiles of Figure 5
// (SRAD2K1, DWT2DK1).
func StandaloneKernels() []Spec { return append([]Spec(nil), kernelSpecs...) }

// All returns benchmarks plus standalone kernels (the 18 plots of Fig. 5).
func All() []Spec { return append(Catalog(), StandaloneKernels()...) }

// ValleySet returns the ten entropy-valley benchmarks (Figures 11–17).
func ValleySet() []Spec {
	var out []Spec
	for _, s := range catalog {
		if s.Valley {
			out = append(out, s)
		}
	}
	return out
}

// NonValleySet returns the six non-valley benchmarks (Figure 20).
func NonValleySet() []Spec {
	var out []Spec
	for _, s := range catalog {
		if !s.Valley {
			out = append(out, s)
		}
	}
	return out
}

// Abbrs returns the abbreviations of every workload (benchmarks plus
// standalone kernels) in catalog order — the valid values services and
// CLIs accept, and the list they print in "unknown workload" errors.
func Abbrs() []string {
	all := All()
	out := make([]string, len(all))
	for i, s := range all {
		out[i] = s.Abbr
	}
	return out
}

// ByAbbr looks up a workload (benchmark or standalone kernel) by its
// Table II abbreviation.
func ByAbbr(abbr string) (Spec, bool) {
	for _, s := range All() {
		if s.Abbr == abbr {
			return s, true
		}
	}
	return Spec{}, false
}
