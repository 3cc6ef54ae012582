package trace

import (
	"io"
	"os"
)

// MmapSource serves a VTRC binary trace straight out of a memory-mapped
// file: a restartable Source whose streams hand out batches that are
// zero-copy views of the mapping (when the platform layout allows — see
// alias.go — and a per-stream decode buffer otherwise). BinaryStream is
// its decoder: at open one hashing pass over the image validates the
// whole file, structure, records and checksum, and saves the kernel
// headers; every stream afterwards replays that walk with no record
// checks and no hashing. Multiple concurrent streams over one source
// are safe because everything they touch is read-only. The mapping is
// PROT_READ where mmap is real, so a consumer violating the read-only
// batch contract faults instead of corrupting the trace.
type MmapSource struct {
	data    []byte
	unmap   func() error
	kernels []KernelInfo // saved by the validating pass for replays
	sum     string
	reqs    int
}

// OpenMmap maps the VTRC file at path read-only and validates it fully.
// On platforms without mmap support (or filesystems that refuse it) the
// file is read into memory instead; semantics are identical, only the
// resident-set behavior differs. Callers must Close the source when
// done and must not use batches obtained from it afterwards.
func OpenMmap(path string) (*MmapSource, error) {
	data, unmap, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	src, err := newMmapSource(data, unmap)
	if err != nil {
		unmap()
		return nil, err
	}
	return src, nil
}

// newMmapSource drains one validating BinaryStream over data, so a
// mapped file is accepted or rejected exactly as an upload of the same
// bytes is, with the same error text.
func newMmapSource(data []byte, unmap func() error) (*MmapSource, error) {
	m := &MmapSource{data: data, unmap: unmap}
	bs := &BinaryStream{data: data, c: newCanonFold()}
	for {
		b, err := bs.Next()
		if err == io.EOF {
			m.sum = bs.SHA256()
			return m, nil
		}
		if err != nil {
			return nil, err
		}
		if b.Kernel != nil {
			m.kernels = append(m.kernels, *b.Kernel)
		}
		m.reqs += len(b.Requests)
	}
}

// Info returns the metadata of an imported trace, like the other
// container decoders.
func (m *MmapSource) Info() SourceInfo {
	return SourceInfo{Name: "imported", Abbr: "IMP", InsnPerAccess: 1}
}

// SHA256 returns the canonical record-stream digest, verified against
// the file checksum at open.
func (m *MmapSource) SHA256() string { return m.sum }

// Requests reports the total request count, known since open.
func (m *MmapSource) Requests() int { return m.reqs }

// Bytes reports the mapped file size.
func (m *MmapSource) Bytes() int { return len(m.data) }

// Close releases the mapping. It is idempotent.
func (m *MmapSource) Close() error {
	if m.unmap == nil {
		return nil
	}
	u := m.unmap
	m.unmap = nil
	m.data = nil
	m.kernels = nil
	return u()
}

// Stream starts a fresh pass over the trace: a replay of the validated
// image. A pass allocates only its decoder; batches alias the mapping
// directly, or reuse one decode buffer on non-aliasing platforms.
func (m *MmapSource) Stream() Stream { return &BinaryStream{data: m.data, headers: m.kernels} }

// readFileFallback loads the whole file when mapping is unavailable.
func readFileFallback(path string) ([]byte, func() error, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	return data, func() error { return nil }, nil
}
