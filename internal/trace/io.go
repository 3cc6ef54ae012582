package trace

// CSV import/export of application traces, so real traces (e.g. dumped
// from an instrumented GPGPU-sim or a binary-instrumentation tool) can be
// fed to the entropy analyzer and simulator, and synthetic traces can be
// inspected with ordinary tools.
//
// Format: one record per request, preceded by kernel header records.
//
//	K,<kernel name>,<warps per TB>,<compute gap cycles>
//	R,<tb id>,<warp>,<R|W>,<hex address>
//
// Requests belong to the most recent K record; TB records must appear
// grouped by ascending TB id within each kernel.

import (
	"bufio"
	"fmt"
	"io"
)

// WriteCSV streams the application trace in the package CSV format.
func WriteCSV(w io.Writer, a *App) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# valleymap trace: %s (%s) insn_per_access=%g valley=%v\n",
		a.Name, a.Abbr, a.InsnPerAccess, a.Valley)
	for ki := range a.Kernels {
		k := &a.Kernels[ki]
		fmt.Fprintf(bw, "K,%s,%d,%d\n", k.Name, k.WarpsPerTB, k.ComputeGapCycles)
		for ti := range k.TBs {
			tb := &k.TBs[ti]
			for _, r := range tb.Requests {
				fmt.Fprintf(bw, "R,%d,%d,%s,%x\n", tb.ID, r.Warp, r.Kind, r.Addr)
			}
		}
	}
	return bw.Flush()
}

// ReadCSV parses a trace written by WriteCSV (or hand-assembled in the
// same format). Metadata lost by the format (name, instruction weight)
// can be set on the returned App afterwards; InsnPerAccess defaults to 1.
//
// ReadCSV is a draining adapter over the streaming decoder (CSVStream),
// so the materialized and streaming paths accept and reject inputs
// identically; it exists for callers that need random access to the
// trace. One-pass consumers (profiling, coalescing) should keep the
// stream instead and stay at O(batch) memory.
func ReadCSV(r io.Reader) (*App, error) {
	cs := NewCSVStream(r)
	return CollectStream(cs, cs.Info())
}
