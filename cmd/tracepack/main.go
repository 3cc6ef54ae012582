// Command tracepack converts traces between the CSV container and the
// VTRC binary container (see internal/trace: doc.go documents the
// binary layout and its stability contract). Binary traces decode
// roughly an order of magnitude cheaper than CSV and can be profiled
// zero-copy via mmap (valleyd -trace-dir, entropymap -trace), so the
// usual flow is: dump or generate CSV once, pack it, profile the packed
// file forever after.
//
// Usage:
//
//	tracepack -in dump.csv -out dump.vtrc            CSV → binary
//	tracepack -in dump.vtrc -out dump.csv            binary → CSV
//	tracepack -workload MT -scale small -out mt.vtrc pack a built-in workload
//	tracepack -in dump.vtrc                          verify + print identity only
//
// The output format follows the -out extension: .csv writes CSV,
// anything else writes VTRC binary. -verify re-decodes the written file
// and checks that its canonical record-stream hash matches the input's
// — the same identity valleyd keys its profile cache on, so a verified
// conversion is guaranteed to hit the cache entries its CSV original
// populated. Conversion streams: memory stays O(largest TB) for binary
// output (CSV output materializes the trace).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"valleymap"
)

func main() {
	in := flag.String("in", "", "input trace file, CSV or VTRC binary (sniffed by magic)")
	workloadAbbr := flag.String("workload", "", "pack a built-in benchmark (Table II abbreviation) instead of reading -in")
	scale := flag.String("scale", "small", "built-in trace scale: tiny, small, full (with -workload)")
	out := flag.String("out", "", "output file; .csv extension writes CSV, anything else VTRC binary (empty = verify/identify the input only)")
	verify := flag.Bool("verify", false, "re-decode the written output and require its canonical hash to match the input's")
	flag.Parse()

	sc, err := valleymap.ParseScale(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracepack:", err)
		os.Exit(2)
	}
	if err := run(*in, *workloadAbbr, sc, *out, *verify); err != nil {
		fmt.Fprintln(os.Stderr, "tracepack:", err)
		os.Exit(1)
	}
}

func run(in, workloadAbbr string, scale valleymap.Scale, out string, verify bool) error {
	src, inputHash, release, err := openInput(in, workloadAbbr, scale)
	if err != nil {
		return err
	}
	defer release() //nolint:errcheck // read-only handle

	if out == "" {
		// Identify mode: drain once (validating the whole file — for
		// binary input the checksum was already verified at open) and
		// report the canonical identity.
		sum, err := inputHash()
		if err != nil {
			return err
		}
		fmt.Printf("%s  %s\n", sum, inputName(in, workloadAbbr))
		return nil
	}

	if err := convert(src, out); err != nil {
		os.Remove(out)
		return err
	}
	sum, err := inputHash()
	if err != nil {
		return fmt.Errorf("hashing input: %w", err)
	}
	if verify {
		outSum, err := hashFile(out)
		if err != nil {
			return fmt.Errorf("verifying %s: %w", out, err)
		}
		if outSum != sum {
			return fmt.Errorf("verify failed: output hash %s != input hash %s", outSum, sum)
		}
		fmt.Fprintf(os.Stderr, "verified: canonical hash %s\n", sum)
	}
	fmt.Printf("%s  %s\n", sum, out)
	return nil
}

// openInput returns the trace source plus a function producing the
// input's canonical hash. For single-shot file streams the hash is read
// off the decoder after the conversion drained it; restartable sources
// (workload generators, mmap) can be hashed independently.
func openInput(in, workloadAbbr string, scale valleymap.Scale) (valleymap.TraceSource, func() (string, error), func() error, error) {
	switch {
	case in != "" && workloadAbbr != "":
		return nil, nil, nil, fmt.Errorf("give either -in or -workload, not both")
	case workloadAbbr != "":
		spec, ok := valleymap.WorkloadByAbbr(strings.ToUpper(workloadAbbr))
		if !ok {
			return nil, nil, nil, fmt.Errorf("unknown workload %q", workloadAbbr)
		}
		src := spec.Source(scale)
		hash := func() (string, error) { return valleymap.TraceCanonicalHash(src) }
		return src, hash, func() error { return nil }, nil
	case in != "":
		src, release, err := valleymap.OpenTraceFile(in)
		if err != nil {
			return nil, nil, nil, err
		}
		hash := func() (string, error) {
			switch s := src.(type) {
			case *valleymap.MmapTraceSource:
				return s.SHA256(), nil
			case *valleymap.CSVTraceStream:
				// Single-shot: drain whatever remains (identify mode; a
				// prior conversion leaves a sticky EOF that makes this a
				// no-op), then read the fold.
				for {
					if _, err := s.Next(); err != nil {
						if err == io.EOF {
							return s.SHA256(), nil
						}
						return "", err
					}
				}
			default:
				return valleymap.TraceCanonicalHash(src)
			}
		}
		return src, hash, release, nil
	default:
		return nil, nil, nil, fmt.Errorf("give -in FILE or -workload ABBR (and -out FILE to convert)")
	}
}

func inputName(in, workloadAbbr string) string {
	if in != "" {
		return in
	}
	return "workload " + strings.ToUpper(workloadAbbr)
}

// convert writes src to out in the format selected by the extension.
func convert(src valleymap.TraceSource, out string) error {
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if strings.HasSuffix(strings.ToLower(out), ".csv") {
		// CSV output materializes (WriteTraceCSV walks an App); fine for
		// the inspect/export direction.
		app, err := valleymap.CollectTrace(src)
		if err != nil {
			f.Close()
			return fmt.Errorf("decoding input: %w", err)
		}
		if err := valleymap.WriteTraceCSV(f, app); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := valleymap.WriteTraceBinaryStream(f, src.Stream()); err != nil {
		f.Close()
		return fmt.Errorf("encoding %s: %w", out, err)
	}
	return f.Close()
}

// hashFile decodes a trace file from scratch and returns its canonical
// record-stream hash.
func hashFile(path string) (string, error) {
	src, release, err := valleymap.OpenTraceFile(path)
	if err != nil {
		return "", err
	}
	defer release() //nolint:errcheck // read-only handle
	if ms, ok := src.(*valleymap.MmapTraceSource); ok {
		return ms.SHA256(), nil
	}
	return valleymap.TraceCanonicalHash(src)
}
