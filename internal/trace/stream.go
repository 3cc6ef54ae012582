package trace

// Streaming trace representation: instead of materializing an *App
// (O(trace) memory), a trace can be produced and consumed as a Stream of
// small request batches with explicit kernel and TB boundaries. The
// entropy analysis is a one-pass computation over TBs in dispatch order
// (Section III), so the whole profiling pipeline — generate/decode →
// coalesce → profile — runs at memory bounded by the batch size and the
// entropy window, independent of trace length.
//
// Conventions shared by every Stream in this package:
//
//   - The first batch of each kernel is a header-only batch: Kernel is
//     non-nil, Requests is empty and TBID is -1.
//   - Request batches follow with Kernel == nil; all requests of one
//     batch belong to a single TB, TBs arrive in dispatch order, and the
//     first batch of a TB has TBStart set. A TB may span several batches.
//   - A batch (and its Requests slice) is only valid until the next call
//     to Next; consumers must copy what they retain and must not mutate
//     the slice (sources may alias long-lived memory).

import "io"

// KernelInfo is the per-kernel metadata carried by a kernel header batch
// (the streaming counterpart of Kernel minus its TBs).
type KernelInfo struct {
	Name             string
	WarpsPerTB       int
	ComputeGapCycles int
}

// SourceInfo is the application-level metadata of a streamed trace (the
// streaming counterpart of App minus its kernels).
type SourceInfo struct {
	Name          string
	Abbr          string
	Valley        bool
	InsnPerAccess float64
}

// Batch is one chunk of a streamed trace. See the package conventions
// above for the header/request batch split and aliasing rules.
type Batch struct {
	// Kernel is non-nil on a kernel header batch (exactly one per
	// kernel, before any of its requests).
	Kernel *KernelInfo
	// KernelIndex is the 0-based ordinal of the kernel this batch
	// belongs to.
	KernelIndex int
	// TBID is the TB the requests belong to (-1 on header batches).
	TBID int
	// TBStart marks the first batch of a TB.
	TBStart bool
	// Requests holds the batch's requests; valid until the next Next.
	Requests []Request
}

// Stream is a pull iterator over a trace. Next returns io.EOF after the
// final batch; any other error aborts the stream. Streams are single-use
// and not safe for concurrent use.
type Stream interface {
	Next() (*Batch, error)
}

// Source is a restartable trace producer: every Stream call starts a
// fresh pass over the same trace. Implementations that can only be read
// once (e.g. network bodies) document that Stream is single-shot.
type Source interface {
	Info() SourceInfo
	Stream() Stream
}

// maxBatchRequests caps the requests per batch so that consumers see
// bounded chunks even for pathologically large TBs.
const maxBatchRequests = 4096

// ---------------------------------------------------------------------
// Materialized adapters: App → Source and Stream → App
// ---------------------------------------------------------------------

// appSource streams a materialized application trace.
type appSource struct{ app *App }

// AppSource wraps a materialized trace as a restartable Source. Batches
// alias the App's request slices (no copying), so consumers must not
// mutate them.
func AppSource(a *App) Source { return appSource{app: a} }

func (s appSource) Info() SourceInfo {
	return SourceInfo{Name: s.app.Name, Abbr: s.app.Abbr, Valley: s.app.Valley, InsnPerAccess: s.app.InsnPerAccess}
}

func (s appSource) Stream() Stream { return &appStream{app: s.app} }

type appStream struct {
	app     *App
	ki, ti  int  // next kernel / TB
	off     int  // offset into the current TB's requests
	started bool // header batch of kernel ki emitted
	batch   Batch
	hdr     KernelInfo
}

func (s *appStream) Next() (*Batch, error) {
	for s.ki < len(s.app.Kernels) {
		k := &s.app.Kernels[s.ki]
		if !s.started {
			s.started = true
			s.hdr = KernelInfo{Name: k.Name, WarpsPerTB: k.WarpsPerTB, ComputeGapCycles: k.ComputeGapCycles}
			s.batch = Batch{Kernel: &s.hdr, KernelIndex: s.ki, TBID: -1}
			return &s.batch, nil
		}
		if s.ti >= len(k.TBs) {
			s.ki++
			s.ti, s.off, s.started = 0, 0, false
			continue
		}
		tb := &k.TBs[s.ti]
		end := s.off + maxBatchRequests
		if end > len(tb.Requests) {
			end = len(tb.Requests)
		}
		s.batch = Batch{
			KernelIndex: s.ki,
			TBID:        tb.ID,
			TBStart:     s.off == 0,
			Requests:    tb.Requests[s.off:end],
		}
		if end == len(tb.Requests) {
			s.ti++
			s.off = 0
		} else {
			s.off = end
		}
		return &s.batch, nil
	}
	return nil, io.EOF
}

// Collect drains a Source into a materialized *App — the adapter that
// keeps every materialized caller working on top of a streaming
// producer.
func Collect(src Source) (*App, error) {
	return CollectStream(src.Stream(), src.Info())
}

// CollectStream drains a Stream into a materialized *App with the given
// application metadata.
func CollectStream(s Stream, info SourceInfo) (*App, error) {
	app := &App{Name: info.Name, Abbr: info.Abbr, Valley: info.Valley, InsnPerAccess: info.InsnPerAccess}
	for {
		b, err := s.Next()
		if err == io.EOF {
			return app, nil
		}
		if err != nil {
			return nil, err
		}
		if b.Kernel != nil {
			app.Kernels = append(app.Kernels, Kernel{
				Name:             b.Kernel.Name,
				WarpsPerTB:       b.Kernel.WarpsPerTB,
				ComputeGapCycles: b.Kernel.ComputeGapCycles,
			})
			continue
		}
		if len(app.Kernels) == 0 {
			if !b.TBStart && len(b.Requests) == 0 {
				continue
			}
			// Tolerate headerless streams the same way the streaming
			// profiler does: open an implicit metadata-less kernel
			// instead of dropping requests, so collecting then
			// profiling equals profiling the stream directly.
			app.Kernels = append(app.Kernels, Kernel{})
		}
		k := &app.Kernels[len(app.Kernels)-1]
		if b.TBStart || len(k.TBs) == 0 {
			k.TBs = append(k.TBs, TB{ID: b.TBID})
		}
		tb := &k.TBs[len(k.TBs)-1]
		tb.Requests = append(tb.Requests, b.Requests...)
	}
}

// ---------------------------------------------------------------------
// Streaming coalescer
// ---------------------------------------------------------------------

// coalesceStream merges per-thread requests into line transactions on
// the fly, keeping only the current warp-instruction window: the
// distinct lines of the in-progress same-warp same-kind run, i.e.
// O(warp width × accesses per thread in the run) state instead of a
// full trace copy. It produces exactly the transactions of CoalesceApp
// in the same order, batch splits aside.
type coalesceStream struct {
	in   Stream
	mask uint64

	runActive bool
	runWarp   int32
	runKind   Kind
	lines     lineSet // line addresses seen in the current run

	out  Batch
	reqs []Request
}

// CoalesceStream wraps a stream with GPU-style memory coalescing at the
// given line size (≤ 0 means DefaultLineBytes, like CoalesceTB).
// Header batches pass through; request batches are rewritten to
// line-aligned transactions. Output batches may be empty when every
// access of an input batch folded into already-emitted lines.
func CoalesceStream(in Stream, lineBytes int) Stream {
	if lineBytes <= 0 {
		lineBytes = DefaultLineBytes
	}
	return &coalesceStream{in: in, mask: ^uint64(lineBytes - 1)}
}

func (c *coalesceStream) Next() (*Batch, error) {
	b, err := c.in.Next()
	if err != nil {
		return nil, err
	}
	if b.Kernel != nil {
		c.runActive = false
		return b, nil
	}
	if b.TBStart {
		// Warp runs never span TBs: each TB restarts the coalescer.
		c.runActive = false
	}
	c.reqs = c.reqs[:0]
	for _, r := range b.Requests {
		if !c.runActive || r.Warp != c.runWarp || r.Kind != c.runKind {
			c.runActive = true
			c.runWarp, c.runKind = r.Warp, r.Kind
			c.lines.reset()
		}
		if la := r.Addr & c.mask; c.lines.add(la) {
			c.reqs = append(c.reqs, Request{Addr: la, Kind: c.runKind, Warp: c.runWarp})
		}
	}
	c.out = Batch{KernelIndex: b.KernelIndex, TBID: b.TBID, TBStart: b.TBStart, Requests: c.reqs}
	return &c.out, nil
}
