package trace

// Streaming CSV trace decoder. CSVStream parses the package CSV format
// (see io.go) one line at a time and yields request batches without ever
// holding more than one batch in memory, folding the canonical
// record-stream SHA-256 (doc.go) as it goes so network services get a
// content-addressed cache key for free at end of stream — one that a
// binary (VTRC) encoding of the same trace hashes equal to, comments
// and whitespace notwithstanding. ReadCSV is a thin adapter that drains
// a CSVStream into an *App, so the materialized and streaming decoders
// accept and reject inputs identically by construction.
//
// Each line takes one of two paths. A well-formed request line — the
// shape WriteCSV emits — is parsed in one forward pass over its bytes
// (parseRequestLine). Every other line (K records, comments, blank or
// padded lines, signs, longer fields, anything malformed) goes through
// the general tokenizer: trim, split on commas, parse each field. Only
// the general path reports errors, so error text does not depend on
// which path a line took.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
)

// CSVStream is a single-shot streaming decoder of the package CSV trace
// format. It implements both Stream and Source (Stream returns the
// decoder itself; a CSVStream cannot be rewound).
type CSVStream struct {
	sc   *bufio.Scanner
	c    *canonFold
	line int
	err  error // sticky terminal state: io.EOF or a decode error

	kernelIndex int // current kernel ordinal, -1 before the first K record
	kernels     int
	haveTB      bool
	curTB       int

	pendingHdr  *KernelInfo // K record waiting behind a flushed batch
	pendingReq  Request     // first request of the next TB, ditto
	pendingTB   int
	havePending bool

	hdr   KernelInfo
	batch Batch
	reqs  []Request
}

// NewCSVStream starts decoding the CSV trace on r. Decoding is lazy:
// bytes are consumed as batches are pulled.
func NewCSVStream(r io.Reader) *CSVStream {
	cs := newCSVStream(r)
	cs.c = newCanonFold()
	return cs
}

// NewCSVStreamUnhashed decodes without the canonical hash fold, for
// callers that already know the content's identity (SHA256 returns the
// empty hash's digest in that case).
func NewCSVStreamUnhashed(r io.Reader) *CSVStream { return newCSVStream(r) }

func newCSVStream(r io.Reader) *CSVStream {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	return &CSVStream{sc: sc, kernelIndex: -1, reqs: make([]Request, 0, maxBatchRequests)}
}

// Info returns the metadata of an imported trace, mirroring the
// defaults ReadCSV applies (name/weight are not part of the format).
func (s *CSVStream) Info() SourceInfo {
	return SourceInfo{Name: "imported", Abbr: "IMP", InsnPerAccess: 1}
}

// Stream returns the decoder itself; a CSVStream is single-shot.
func (s *CSVStream) Stream() Stream { return s }

// SHA256 returns the canonical record-stream digest (doc.go) — the
// format-independent identity every container decoder reports for the
// same records. It is the content-addressed identity of the trace once
// Next has returned io.EOF; calling it earlier hashes only the prefix
// decoded so far, and on an unhashed stream it is the digest of no
// bytes.
func (s *CSVStream) SHA256() string { return s.c.sumHex() }

func (s *CSVStream) failf(format string, args ...any) (*Batch, error) {
	s.err = fmt.Errorf(format, args...)
	return nil, s.err
}

// flush emits the buffered requests as one batch, folding them into the
// canonical hash (every emitted batch passes through exactly one of
// flush/emitHeader, so the fold sees each record once, in order).
func (s *CSVStream) flush(tbStart bool) *Batch {
	if s.c != nil {
		if tbStart {
			s.c.tbStart(s.curTB)
		}
		s.c.requests(s.reqs)
	}
	s.batch = Batch{KernelIndex: s.kernelIndex, TBID: s.curTB, TBStart: tbStart, Requests: s.reqs}
	return &s.batch
}

// emitHeader opens a new kernel and returns its header batch.
func (s *CSVStream) emitHeader(hdr KernelInfo) *Batch {
	if s.c != nil {
		s.c.kernel(&hdr)
	}
	s.kernelIndex++
	s.kernels++
	s.haveTB = false
	s.hdr = hdr
	s.batch = Batch{Kernel: &s.hdr, KernelIndex: s.kernelIndex, TBID: -1}
	return &s.batch
}

// Next decodes up to one batch of requests (or one kernel header).
func (s *CSVStream) Next() (*Batch, error) {
	if s.err != nil {
		return nil, s.err
	}
	if s.pendingHdr != nil {
		hdr := *s.pendingHdr
		s.pendingHdr = nil
		return s.emitHeader(hdr), nil
	}
	s.reqs = s.reqs[:0]
	tbStart := false
	if s.havePending {
		s.havePending = false
		s.curTB = s.pendingTB
		s.haveTB = true
		tbStart = true
		s.reqs = append(s.reqs, s.pendingReq)
	}
	var fields [8][]byte
	for {
		if !s.sc.Scan() {
			if err := s.sc.Err(); err != nil {
				s.err = err
				return nil, err
			}
			if s.kernels == 0 {
				return s.failf("trace csv: no kernels")
			}
			s.err = io.EOF
			if len(s.reqs) > 0 {
				return s.flush(tbStart), nil
			}
			return nil, io.EOF
		}
		s.line++
		line := s.sc.Bytes()
		tbID, req, ok := parseRequestLine(line)
		if !ok || s.kernelIndex < 0 {
			text := bytes.TrimSpace(line)
			if len(text) == 0 || text[0] == '#' {
				continue
			}
			nf := splitComma(text, fields[:])
			switch {
			case nf >= 1 && len(fields[0]) == 1 && fields[0][0] == 'K':
				if nf != 4 {
					return s.failf("trace csv line %d: K record needs 4 fields", s.line)
				}
				warps, ok := atoiBytes(fields[2])
				if !ok || warps <= 0 {
					return s.failf("trace csv line %d: bad warp count %q", s.line, fields[2])
				}
				gap, ok := atoiBytes(fields[3])
				if !ok || gap < 0 {
					return s.failf("trace csv line %d: bad gap %q", s.line, fields[3])
				}
				hdr := KernelInfo{Name: string(fields[1]), WarpsPerTB: warps, ComputeGapCycles: gap}
				if len(s.reqs) > 0 {
					s.pendingHdr = &hdr
					return s.flush(tbStart), nil
				}
				return s.emitHeader(hdr), nil
			case nf >= 1 && len(fields[0]) == 1 && fields[0][0] == 'R':
				if s.kernelIndex < 0 {
					return s.failf("trace csv line %d: R record before any K record", s.line)
				}
				var err error
				if tbID, req, err = parseRequestFields(fields[:nf]); err != nil {
					return s.failf("trace csv line %d: %v", s.line, err)
				}
			default:
				return s.failf("trace csv line %d: unknown record type %q", s.line, fields[0])
			}
		}
		if !s.haveTB || tbID != s.curTB {
			if s.haveTB && tbID <= s.curTB {
				return s.failf("trace csv line %d: TB ids must ascend within a kernel", s.line)
			}
			if len(s.reqs) > 0 {
				s.havePending = true
				s.pendingReq = req
				s.pendingTB = tbID
				return s.flush(tbStart), nil
			}
			s.curTB = tbID
			s.haveTB = true
			tbStart = true
		}
		s.reqs = append(s.reqs, req)
		if len(s.reqs) >= maxBatchRequests {
			return s.flush(tbStart), nil
		}
	}
}

// parseRequestLine parses a well-formed request line in one forward
// pass: "R,", a TB id and a warp of 1–9 decimal digits each, "R" or
// "W", and 1–16 hex digits, comma-separated, with nothing before,
// between or after them. Nine digits stay below MaxInt32 and sixteen
// hex digits fit 64 bits, so no value needs a range check. Any other
// line reports ok = false and is left to the general tokenizer, which
// accepts every line this accepts, with the same TB id and request
// (FuzzCSVStreamParity).
func parseRequestLine(line []byte) (tbID int, req Request, ok bool) {
	if len(line) < 2 || line[0] != 'R' || line[1] != ',' {
		return 0, req, false
	}
	tbID, i := decimalField(line, 2)
	if i < 0 {
		return 0, req, false
	}
	warp, i := decimalField(line, i)
	if i < 0 || i+2 >= len(line) || line[i+1] != ',' {
		return 0, req, false
	}
	switch line[i] {
	case 'R':
		req.Kind = Read
	case 'W':
		req.Kind = Write
	default:
		return 0, req, false
	}
	hex := line[i+2:]
	if len(hex) > 16 {
		return 0, req, false
	}
	for _, c := range hex {
		d := hexDigit[c]
		if d > 0xf {
			return 0, req, false
		}
		req.Addr = req.Addr<<4 | uint64(d)
	}
	req.Warp = int32(warp)
	return tbID, req, true
}

// decimalField reads 1–9 decimal digits of line starting at i and the
// comma after them. It returns the value and the index past the comma,
// or next < 0 if the field is anything else.
func decimalField(line []byte, i int) (v, next int) {
	j := i
	for j < len(line) && j-i < 9 {
		d := line[j] - '0'
		if d > 9 {
			break
		}
		v = v*10 + int(d)
		j++
	}
	if j == i || j >= len(line) || line[j] != ',' {
		return 0, -1
	}
	return v, j + 1
}

// hexDigit maps a byte to its hex digit value, or 0xff if it is none.
// hexBytes keeps its own digit switch: the general path is the
// reference FuzzCSVStreamParity holds this parser to, so the two share
// no digit logic.
var hexDigit = func() (t [256]byte) {
	for c := range t {
		t[c] = 0xff
	}
	for c := '0'; c <= '9'; c++ {
		t[c] = byte(c - '0')
	}
	for c := 'a'; c <= 'f'; c++ {
		t[c] = byte(c-'a') + 10
		t[c-'a'+'A'] = byte(c-'a') + 10
	}
	return t
}()

// parseRequestFields is the general tokenizer's parser for the fields
// of an R record, the record type included. Its errors carry no line
// number; Next adds it.
func parseRequestFields(fields [][]byte) (tbID int, req Request, err error) {
	if len(fields) != 5 {
		return 0, req, errors.New("R record needs 5 fields")
	}
	tbID, ok := atoiBytes(fields[1])
	if !ok {
		return 0, req, fmt.Errorf("bad tb id %q", fields[1])
	}
	warp, ok := atoiBytes(fields[2])
	if !ok || warp < 0 || warp > math.MaxInt32 {
		// Warp is an int32 in Request; accepting a wider value here
		// would wrap it negative — unrepresentable in either
		// container and a silent corruption of the trace.
		return 0, req, fmt.Errorf("bad warp %q", fields[2])
	}
	switch {
	case len(fields[3]) == 1 && fields[3][0] == 'R':
		req.Kind = Read
	case len(fields[3]) == 1 && fields[3][0] == 'W':
		req.Kind = Write
	default:
		return 0, req, fmt.Errorf("bad kind %q", fields[3])
	}
	if req.Addr, ok = hexBytes(fields[4]); !ok {
		return 0, req, fmt.Errorf("bad address %q", fields[4])
	}
	req.Warp = int32(warp)
	return tbID, req, nil
}

// splitComma splits text on commas into dst without allocating; it
// returns the field count, capping at len(dst) (beyond-cap fields only
// matter for "needs N fields" errors, which trip on nf != N anyway).
func splitComma(text []byte, dst [][]byte) int {
	n := 0
	for n < len(dst) {
		i := bytes.IndexByte(text, ',')
		if i < 0 {
			dst[n] = text
			n++
			return n
		}
		dst[n] = text[:i]
		n++
		text = text[i+1:]
	}
	return n
}

// atoiBytes parses a signed decimal integer (optional +/- sign) with
// strconv.Atoi's 64-bit accept set: magnitudes above MaxInt64 are
// rejected like Atoi's range errors, never silently wrapped. (The lone
// divergence is MinInt64 itself, which is rejected; no real trace
// carries it.)
func atoiBytes(b []byte) (int, bool) {
	i := 0
	neg := false
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		neg = b[0] == '-'
		i = 1
	}
	if i == len(b) {
		return 0, false
	}
	// n stays in [0, MaxInt64]: refuse the multiply when it could
	// exceed MaxInt64, and catch the +d wrap via the sign bit.
	const cutoff = math.MaxInt64/10 + 1
	var n int64
	for ; i < len(b); i++ {
		d := b[i] - '0'
		if d > 9 {
			return 0, false
		}
		if n >= cutoff {
			return 0, false
		}
		n = n*10 + int64(d)
		if n < 0 {
			return 0, false
		}
	}
	if neg {
		n = -n
	}
	// Reject values that do not survive the int conversion (32-bit
	// platforms), mirroring Atoi's platform-width range errors.
	if int64(int(n)) != n {
		return 0, false
	}
	return int(n), true
}

// hexBytes parses an unsigned hexadecimal integer with exactly
// strconv.ParseUint(s, 16, 64)'s accept set (no sign, no 0x prefix).
func hexBytes(b []byte) (uint64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var v uint64
	for _, c := range b {
		var d uint64
		switch {
		case '0' <= c && c <= '9':
			d = uint64(c - '0')
		case 'a' <= c && c <= 'f':
			d = uint64(c-'a') + 10
		case 'A' <= c && c <= 'F':
			d = uint64(c-'A') + 10
		default:
			return 0, false
		}
		if v>>60 != 0 {
			return 0, false // next shift would overflow 64 bits
		}
		v = v<<4 | d
	}
	return v, true
}
