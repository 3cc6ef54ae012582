package trace

// VTRC binary trace container: the zero-parse counterpart of the CSV
// format. Fixed-width little-endian records mean ingest is a
// bounds-check plus (at most) a 16-byte copy per request instead of a
// parse of about 19 bytes of text, and the canonical record-stream hash
// doubles as both the file checksum and the content-addressed cache
// identity shared with CSV uploads. BinaryStream is the one decoder,
// for uploads and mapped files alike: it validates everything in one
// pass, and a mapped file's later passes replay that pass's walk
// without record checks or hashing (mmap.go). See doc.go for the full
// layout and the format-stability contract.

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
)

const (
	binaryMagic   = "VTRC"
	binaryVersion = 1

	secKernel = 1
	secTB     = 2
	secEnd    = 3

	// recordBytes is the fixed width of one request record:
	// addr u64, kind u8, 3 zero bytes, warp i32.
	recordBytes = 16

	// maxKernelName bounds kernel-name lengths, mirroring the CSV
	// scanner's 1 MB line cap, so a corrupt length field cannot force a
	// huge allocation.
	maxKernelName = 1 << 20
)

// binaryHeader is the fixed 16-byte file header: magic, version, zero
// padding to the first 8-byte boundary of the section area.
var binaryHeader = func() [16]byte {
	var h [16]byte
	copy(h[:], binaryMagic)
	h[4] = binaryVersion
	return h
}()

// ---------------------------------------------------------------------
// Canonical record-stream hash
// ---------------------------------------------------------------------

// canonFold accumulates the canonical record-stream digest (doc.go):
// the VTRC byte stream minus tb request counts and minus the end
// section. It needs only O(batch) scratch, so every decoder — CSV,
// binary, materialized — folds it incrementally while streaming.
type canonFold struct {
	h   hash.Hash
	buf []byte
}

func newCanonFold() *canonFold {
	c := &canonFold{h: sha256.New()}
	c.h.Write(binaryHeader[:])
	return c
}

// raw folds already-encoded canonical bytes (the binary reader/writer
// path, which has section bytes in hand).
func (c *canonFold) raw(b []byte) { c.h.Write(b) }

// kernel folds one kernel section.
func (c *canonFold) kernel(k *KernelInfo) {
	c.buf = appendKernelSection(c.buf[:0], k)
	c.h.Write(c.buf)
}

// tbStart folds a tb section header (tag + id; counts are not part of
// the canonical stream). It goes through the reusable buffer rather
// than a stack array: the interface write would force a stack array to
// escape, costing one allocation per TB.
func (c *canonFold) tbStart(id int) {
	c.buf = append(c.buf[:0], 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	binary.LittleEndian.PutUint64(c.buf[0:8], secTB)
	binary.LittleEndian.PutUint64(c.buf[8:16], uint64(int64(id)))
	c.h.Write(c.buf)
}

// requests folds a run of request records.
func (c *canonFold) requests(rs []Request) {
	c.buf = appendRequests(c.buf[:0], rs)
	c.h.Write(c.buf)
}

// batch folds one stream batch, dispatching on its shape.
func (c *canonFold) batch(b *Batch) {
	if b.Kernel != nil {
		c.kernel(b.Kernel)
		return
	}
	if b.TBStart {
		c.tbStart(b.TBID)
	}
	c.requests(b.Requests)
}

func (c *canonFold) sum() [sha256.Size]byte {
	var s [sha256.Size]byte
	c.h.Sum(s[:0])
	return s
}

// sumHex is the hex digest; an unhashed stream's nil fold reports the
// digest of no bytes.
func (c *canonFold) sumHex() string {
	if c == nil {
		return hex.EncodeToString(sha256.New().Sum(nil))
	}
	s := c.sum()
	return hex.EncodeToString(s[:])
}

// CanonicalHash drains one pass of src and returns its canonical
// record-stream digest — the identity CSVStream.SHA256,
// BinaryStream.SHA256, MmapSource.SHA256 and a VTRC end section all
// report for the same records, regardless of container format or batch
// boundaries.
func CanonicalHash(src Source) (string, error) {
	c := newCanonFold()
	st := src.Stream()
	for {
		b, err := st.Next()
		if err == io.EOF {
			return c.sumHex(), nil
		}
		if err != nil {
			return "", err
		}
		c.batch(b)
	}
}

// ---------------------------------------------------------------------
// Encoding helpers (shared by the writer and the canonical hasher)
// ---------------------------------------------------------------------

// appendKernelSection appends one complete kernel section (tag, warps,
// gap, name length, name, zero padding to 8 bytes).
func appendKernelSection(dst []byte, k *KernelInfo) []byte {
	var b [8]byte
	le := binary.LittleEndian
	le.PutUint64(b[:], secKernel)
	dst = append(dst, b[:]...)
	le.PutUint64(b[:], uint64(int64(k.WarpsPerTB)))
	dst = append(dst, b[:]...)
	le.PutUint64(b[:], uint64(int64(k.ComputeGapCycles)))
	dst = append(dst, b[:]...)
	le.PutUint64(b[:], uint64(len(k.Name)))
	dst = append(dst, b[:]...)
	dst = append(dst, k.Name...)
	for pad := namePad(len(k.Name)); pad > 0; pad-- {
		dst = append(dst, 0)
	}
	return dst
}

func namePad(nameLen int) int { return (8 - nameLen%8) % 8 }

// appendRequests appends fixed-width request records.
func appendRequests(dst []byte, rs []Request) []byte {
	for i := range rs {
		var b [recordBytes]byte
		binary.LittleEndian.PutUint64(b[0:8], rs[i].Addr)
		b[8] = byte(rs[i].Kind)
		binary.LittleEndian.PutUint32(b[12:16], uint32(rs[i].Warp))
		dst = append(dst, b[:]...)
	}
	return dst
}

// validateRecords checks every fixed-width record in raw (whose length
// must be a multiple of recordBytes): known kind, zero padding,
// non-negative warp. It is the binary counterpart of the CSV field
// parsers; addresses, like in CSV, are unrestricted here (App.Validate
// owns bit-width checks).
func validateRecords(raw []byte) error {
	for i := 0; i+recordBytes <= len(raw); i += recordBytes {
		if raw[i+8] > 1 {
			return fmt.Errorf("bad request kind %d", raw[i+8])
		}
		if raw[i+9]|raw[i+10]|raw[i+11] != 0 {
			return fmt.Errorf("nonzero request padding")
		}
		if raw[i+15]&0x80 != 0 {
			return fmt.Errorf("negative warp %d", int32(binary.LittleEndian.Uint32(raw[i+12:i+16])))
		}
	}
	return nil
}

// copyRecords decodes validated records into *dst (grown as needed),
// the portable fallback when aliasing is unavailable.
func copyRecords(raw []byte, dst *[]Request) []Request {
	n := len(raw) / recordBytes
	if cap(*dst) < n {
		*dst = make([]Request, n)
	}
	rs := (*dst)[:n]
	for i := 0; i < n; i++ {
		rec := raw[i*recordBytes:]
		rs[i] = Request{
			Addr: binary.LittleEndian.Uint64(rec[0:8]),
			Kind: Kind(rec[8]),
			Warp: int32(binary.LittleEndian.Uint32(rec[12:16])),
		}
	}
	return rs
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

// binaryWriter emits VTRC sections while folding the canonical hash for
// the end-section checksum. Write errors are sticky in the bufio layer
// and surface at end().
type binaryWriter struct {
	bw  *bufio.Writer
	c   *canonFold
	buf []byte
}

func newBinaryWriter(w io.Writer) *binaryWriter {
	b := &binaryWriter{bw: bufio.NewWriterSize(w, 1<<16), c: newCanonFold()}
	b.bw.Write(binaryHeader[:]) // the hasher folds the header at construction
	return b
}

func (w *binaryWriter) kernel(k *KernelInfo) {
	w.buf = appendKernelSection(w.buf[:0], k)
	w.bw.Write(w.buf)
	w.c.raw(w.buf)
}

func (w *binaryWriter) tb(id int, reqs []Request) {
	var b [24]byte
	le := binary.LittleEndian
	le.PutUint64(b[0:8], secTB)
	le.PutUint64(b[8:16], uint64(int64(id)))
	le.PutUint64(b[16:24], uint64(len(reqs)))
	w.bw.Write(b[:])
	w.c.raw(b[:16]) // the count is not part of the canonical stream
	for len(reqs) > 0 {
		n := len(reqs)
		if n > maxBatchRequests {
			n = maxBatchRequests
		}
		w.buf = appendRequests(w.buf[:0], reqs[:n])
		w.bw.Write(w.buf)
		w.c.raw(w.buf)
		reqs = reqs[n:]
	}
}

func (w *binaryWriter) end() error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], secEnd)
	w.bw.Write(b[:])
	sum := w.c.sum()
	w.bw.Write(sum[:])
	return w.bw.Flush()
}

// WriteBinary streams the application trace in the VTRC binary format.
// Like WriteCSV it encodes what it is given — decoded or Validate()d
// traces roundtrip; structurally invalid ones (non-positive warp
// counts, descending TB ids) produce files the decoder rejects.
func WriteBinary(w io.Writer, a *App) error {
	bw := newBinaryWriter(w)
	for ki := range a.Kernels {
		k := &a.Kernels[ki]
		hdr := KernelInfo{Name: k.Name, WarpsPerTB: k.WarpsPerTB, ComputeGapCycles: k.ComputeGapCycles}
		bw.kernel(&hdr)
		for ti := range k.TBs {
			bw.tb(k.TBs[ti].ID, k.TBs[ti].Requests)
		}
	}
	return bw.end()
}

// WriteBinaryStream drains a Stream into the VTRC binary format without
// materializing the trace: a tb section carries its request count up
// front, so the writer holds one TB's requests at a time (O(largest TB)
// memory) and everything else passes through. The stream must follow
// the package header-first convention; headerless streams encode to a
// file the decoder rejects.
func WriteBinaryStream(w io.Writer, s Stream) error {
	bw := newBinaryWriter(w)
	var (
		reqs []Request
		tbID int
		inTB bool
	)
	flushTB := func() {
		if inTB {
			bw.tb(tbID, reqs)
			reqs = reqs[:0]
			inTB = false
		}
	}
	for {
		b, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if b.Kernel != nil {
			flushTB()
			bw.kernel(b.Kernel)
			continue
		}
		if b.TBStart {
			flushTB()
		}
		if !inTB {
			inTB = true
			tbID = b.TBID
		}
		reqs = append(reqs, b.Requests...)
	}
	flushTB()
	return bw.end()
}

// ---------------------------------------------------------------------
// Streaming decoder
// ---------------------------------------------------------------------

// BinaryStream is the VTRC decoder, the counterpart of CSVStream: it
// implements both Stream and Source (Stream returns the decoder itself;
// it cannot be rewound), enforces the same structural rules as the CSV
// decoder, folds the canonical content digest incrementally, and
// verifies it against the end-section checksum before reporting io.EOF
// — damaged input fails cleanly, it never yields a silently truncated
// trace.
//
// It reads either a bufio.Reader (NewBinaryStream) or an in-memory
// image, whose bytes it slices in place. An MmapSource validates its
// image with one such pass at open; each of its streams is then a
// replay: an unhashed BinaryStream over the same image that walks the
// same sections but skips record checks, the hash and the checksum,
// and takes kernel headers from the ones the validating pass saved.
type BinaryStream struct {
	br   *bufio.Reader // the input of a reader stream
	data []byte        // the unread rest of an image stream
	buf  []byte        // a reader stream's take buffer
	// c folds the canonical hash; it is nil only on a replay, which
	// reads kernel headers from headers instead.
	c       *canonFold
	headers []KernelInfo
	err     error // sticky terminal state: io.EOF or a decode error

	started bool
	kernels int // kernel sections read; the current kernel is kernels-1
	haveTB  bool
	curTB   int

	remaining uint64 // request records left in the current tb section
	tbFirst   bool   // the next chunk is its TB's first batch

	reqs  []Request // decode buffer where records cannot be aliased
	batch Batch
	hdr   KernelInfo
}

// NewBinaryStream starts decoding the VTRC trace on r. Decoding is
// lazy: bytes are consumed as batches are pulled. (The read buffer is
// deliberately smaller than the 64 KiB record chunk buffer: bulk record
// reads bypass it via bufio's large-read path, so it only ever holds
// section headers.)
func NewBinaryStream(r io.Reader) *BinaryStream {
	return &BinaryStream{br: bufio.NewReaderSize(r, 1<<14), c: newCanonFold()}
}

// Info returns the metadata of an imported trace, mirroring CSVStream
// (application metadata is not part of either container format).
func (s *BinaryStream) Info() SourceInfo {
	return SourceInfo{Name: "imported", Abbr: "IMP", InsnPerAccess: 1}
}

// Stream returns the decoder itself; a BinaryStream is single-shot.
func (s *BinaryStream) Stream() Stream { return s }

// SHA256 returns the canonical record-stream digest. It is the
// content-addressed identity of the trace once Next has returned io.EOF
// (at which point it has also been verified against the file checksum);
// calling it earlier hashes only the prefix decoded so far, and on a
// replay, which hashes nothing, it is the digest of no bytes.
func (s *BinaryStream) SHA256() string { return s.c.sumHex() }

func (s *BinaryStream) failf(format string, args ...any) (*Batch, error) {
	s.err = fmt.Errorf("trace binary: "+format, args...)
	return nil, s.err
}

// take returns the next n bytes of input, or records a sticky error
// ("truncated <what>" when the input ends first). An image is sliced in
// place; a reader fills the reusable buffer, so the bytes are valid
// only until the next take. The loop calls bufio.Reader.Read rather
// than io.ReadFull, which would spin on a reader that keeps returning
// neither bytes nor an error.
func (s *BinaryStream) take(n int, what string) ([]byte, bool) {
	if s.br == nil {
		if len(s.data) < n {
			s.err = fmt.Errorf("trace binary: truncated %s", what)
			return nil, false
		}
		b := s.data[:n]
		s.data = s.data[n:]
		return b, true
	}
	if cap(s.buf) < n {
		s.buf = make([]byte, max(n, maxBatchRequests*recordBytes))
	}
	b := s.buf[:n]
	for got := 0; got < n; {
		m, err := s.br.Read(b[got:])
		got += m
		switch {
		case got == n:
		case err == io.EOF:
			s.err = fmt.Errorf("trace binary: truncated %s", what)
			return nil, false
		case err != nil:
			s.err = err
			return nil, false
		case m == 0:
			s.err = io.ErrNoProgress
			return nil, false
		}
	}
	return b, true
}

// Next decodes up to one batch of requests (or one kernel header).
func (s *BinaryStream) Next() (*Batch, error) {
	if s.err != nil {
		return nil, s.err
	}
	if !s.started {
		s.started = true
		hdr, ok := s.take(16, "header")
		if !ok {
			return nil, s.err
		}
		if string(hdr[:4]) != binaryMagic {
			return s.failf("bad magic %q (want %q)", hdr[:4], binaryMagic)
		}
		if hdr[4] != binaryVersion {
			return s.failf("unsupported version %d (want %d)", hdr[4], binaryVersion)
		}
		for _, b := range hdr[5:] {
			if b != 0 {
				return s.failf("nonzero header padding")
			}
		}
		// The hasher folded the (fixed) header at construction.
	}
	if s.remaining > 0 {
		return s.emitChunk()
	}
	tag, ok := s.take(8, "section tag")
	if !ok {
		return nil, s.err
	}
	le := binary.LittleEndian
	switch le.Uint64(tag) {
	case secKernel:
		f, ok := s.take(24, "kernel section")
		if !ok {
			return nil, s.err
		}
		warps, gap, nameLen := int64(le.Uint64(f)), int64(le.Uint64(f[8:])), le.Uint64(f[16:])
		if warps <= 0 || int64(int(warps)) != warps {
			return s.failf("kernel %d: bad warp count %d", s.kernels, warps)
		}
		if gap < 0 || int64(int(gap)) != gap {
			return s.failf("kernel %d: bad gap %d", s.kernels, gap)
		}
		if nameLen > maxKernelName {
			return s.failf("kernel %d: name length %d exceeds %d", s.kernels, nameLen, maxKernelName)
		}
		name, ok := s.take(int(nameLen)+namePad(int(nameLen)), "kernel name")
		if !ok {
			return nil, s.err
		}
		if s.c == nil {
			s.hdr = s.headers[s.kernels]
		} else {
			for _, b := range name[nameLen:] {
				if b != 0 {
					return s.failf("kernel %d: nonzero name padding", s.kernels)
				}
			}
			s.hdr = KernelInfo{Name: string(name[:nameLen]), WarpsPerTB: int(warps), ComputeGapCycles: int(gap)}
			s.c.kernel(&s.hdr)
		}
		s.kernels++
		s.haveTB = false
		s.batch = Batch{Kernel: &s.hdr, KernelIndex: s.kernels - 1, TBID: -1}
		return &s.batch, nil
	case secTB:
		if s.kernels == 0 {
			return s.failf("tb section before any kernel section")
		}
		f, ok := s.take(16, "tb section")
		if !ok {
			return nil, s.err
		}
		id := int64(le.Uint64(f))
		if int64(int(id)) != id {
			return s.failf("tb id %d out of range", id)
		}
		if s.haveTB && int(id) <= s.curTB {
			return s.failf("TB ids must ascend within a kernel (tb %d after %d)", id, s.curTB)
		}
		s.curTB = int(id)
		s.haveTB = true
		if s.c != nil {
			s.c.tbStart(s.curTB)
		}
		s.remaining = le.Uint64(f[8:])
		if s.remaining == 0 {
			// Empty TBs are representable (AppSource emits them too);
			// the TB exists, it just has no requests.
			s.batch = Batch{KernelIndex: s.kernels - 1, TBID: s.curTB, TBStart: true}
			return &s.batch, nil
		}
		s.tbFirst = true
		return s.emitChunk()
	case secEnd:
		if s.kernels == 0 {
			return s.failf("no kernels")
		}
		stored, ok := s.take(sha256.Size, "checksum")
		if !ok {
			return nil, s.err
		}
		if s.c != nil && s.c.sum() != [sha256.Size]byte(stored) {
			return s.failf("checksum mismatch: content corrupted")
		}
		if len(s.data) > 0 {
			return s.failf("data after end section")
		}
		if s.br != nil {
			if _, err := s.br.ReadByte(); err == nil {
				return s.failf("data after end section")
			} else if err != io.EOF {
				s.err = err
				return nil, err
			}
		}
		s.err = io.EOF
		return nil, io.EOF
	default:
		return s.failf("unknown section tag %d", le.Uint64(tag))
	}
}

// emitChunk takes up to one batch of the current tb section's records,
// validating and hashing them unless this is a replay, and serves them
// zero-copy out of the image or read buffer when the platform allows
// (see alias.go) and via a reusable decode buffer otherwise.
// Steady-state decoding allocates nothing either way.
func (s *BinaryStream) emitChunk() (*Batch, error) {
	n := min(s.remaining, maxBatchRequests)
	raw, ok := s.take(int(n)*recordBytes, "tb requests")
	if !ok {
		return nil, s.err
	}
	if s.c != nil {
		s.c.raw(raw)
		if err := validateRecords(raw); err != nil {
			return s.failf("tb %d: %v", s.curTB, err)
		}
	}
	reqs, ok := aliasRequests(raw)
	if !ok {
		reqs = copyRecords(raw, &s.reqs)
	}
	s.remaining -= n
	s.batch = Batch{KernelIndex: s.kernels - 1, TBID: s.curTB, TBStart: s.tbFirst, Requests: reqs}
	s.tbFirst = false
	return &s.batch, nil
}

// ReadBinary parses a trace written by WriteBinary. Like ReadCSV it is
// a draining adapter over the streaming decoder (BinaryStream), so the
// materialized and streaming binary paths accept and reject inputs
// identically by construction.
func ReadBinary(r io.Reader) (*App, error) {
	bs := NewBinaryStream(r)
	return CollectStream(bs, bs.Info())
}
