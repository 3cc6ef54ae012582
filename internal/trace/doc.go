// Package trace defines the memory-request trace representation shared by
// the entropy analyzer and the GPU simulator: requests grouped by Thread
// Block (TB), TBs grouped by kernel, kernels grouped by application. The
// grouping mirrors the GPU execution model of Section II — TBs are the
// scheduling unit, kernels serialize, and request order inside a TB is
// deliberately not relied upon by the analysis (Section III-A).
//
// # Trace containers
//
// Traces move between tools in two on-disk/wire formats that carry
// exactly the same information (kernels, TBs, requests — application
// metadata such as name and instruction weight is in neither):
//
//   - CSV (io.go, csvstream.go): human-readable, one record per line.
//     A well-formed request line is parsed in one forward pass over its
//     bytes; every other line (kernel headers, comments, padded or
//     malformed lines) is trimmed, split and parsed field by field,
//     and only that general path reports errors. Either way decoding
//     reads every byte of text, about 19 per request.
//   - VTRC binary (binary.go, mmap.go): fixed-width little-endian
//     records behind a magic + version header, checksummed. Decoding is
//     a bounds-checked copy (or, on the mmap path, no copy at all).
//     One decoder, BinaryStream, reads both uploads and mapped files.
//     A mapped file is validated by one pass at open; its streams
//     replay that pass's work, skipping record checks and hashing.
//
// # VTRC container layout
//
// All integers are little-endian. Every section starts 8-byte aligned,
// so request records can be served as zero-copy views of a mapped file.
//
//	header   magic "VTRC", version byte (1), 11 zero bytes   (16 bytes)
//	kernel   tag u64 = 1, warps i64, gap i64, nameLen u64,
//	         name bytes, zero padding to the next 8-byte boundary
//	tb       tag u64 = 2, tb id i64, request count u64,
//	         then count request records
//	request  addr u64, kind u8 (0 read / 1 write), 3 zero bytes,
//	         warp i32                                        (16 bytes)
//	end      tag u64 = 3, 32-byte SHA-256 (see below); nothing may
//	         follow it
//
// Sections obey the package streaming conventions: requests belong to
// the most recent kernel section, TB ids ascend strictly within a
// kernel, warp counts are positive, compute gaps and warps are
// non-negative, and padding bytes are zero. A valid trace therefore has
// exactly one VTRC encoding, which is what makes the format canonical.
//
// # Canonical hash
//
// The content identity of a trace — the digest cache keys and converters
// agree on — is the SHA-256 of its canonical record stream: the VTRC
// byte stream minus each tb section's request-count field and minus the
// end section. Omitting the counts is what lets every decoder (CSV,
// binary, materialized) fold the hash incrementally in O(1) state
// without buffering a TB. The checksum stored in a VTRC end section is
// exactly this hash, so verifying a binary file and identifying its
// content are one pass, and a CSV upload hashes equal to its tracepack
// binary conversion by construction.
//
// # Format stability contract
//
// The version byte after the magic is the compatibility gate. Readers
// accept version 1 only; any other value fails with the error text
// "trace binary: unsupported version N (want 1)" so callers and tests
// can pin the behavior. Changes that alter the meaning of version-1
// bytes require a version bump; additive changes (new section tags) do
// too, because version-1 readers reject unknown tags. Damaged input —
// truncation, flipped bits, trailing garbage — must surface as a clean
// error, never a panic and never a silently truncated trace: structure
// is validated section by section and content is pinned by the end
// checksum.
package trace
