package trace

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"
)

// FuzzCSVStreamParity holds the materialized and streaming CSV decoders
// to identical accept/reject behavior on arbitrary inputs, and to never
// panicking. ReadCSV is today a draining adapter over CSVStream — the
// fuzz target pins that equivalence as a contract, so a future
// reimplementation of either path (a faster materialized parser, a
// stricter streaming one) cannot silently diverge on inputs no table
// test thought of. It also cross-checks the hashed and unhashed stream
// variants, the incremental digest, and error stickiness.
//
// Seeded from the malformed-input parity corpus plus the
// valid-but-unusual accept corpus (stream_test.go).
func FuzzCSVStreamParity(f *testing.F) {
	for _, tc := range malformedCSVCases {
		f.Add(tc.in)
	}
	for _, in := range acceptCSVCases {
		f.Add(in)
	}
	// A few shapes the corpora do not cover: huge fields, NUL bytes,
	// carriage returns, a comment between records of one TB.
	f.Add("K,k,1,1\nR,0,0,R," + strings.Repeat("f", 64) + "\n")
	f.Add("K,k\x00,1,1\nR,0,0,R,10\n")
	f.Add("K,k,1,1\r\nR,0,0,R,10\r\n")
	f.Add("K,k,1,1\nR,0,0,R,10\n# mid\nR,0,1,W,20\n")

	f.Fuzz(func(t *testing.T, in string) {
		// Materialized decode (drains a fresh hashed stream internally).
		matApp, matErr := ReadCSV(strings.NewReader(in))

		// Streaming decode, batch by batch, hashed variant.
		cs := NewCSVStream(strings.NewReader(in))
		var streamErr error
		for {
			_, err := cs.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				streamErr = err
				break
			}
		}

		// Accept/reject parity, with identical error text.
		if (matErr == nil) != (streamErr == nil) {
			t.Fatalf("decoders disagree on %q:\n  materialized: %v\n  streaming:    %v", in, matErr, streamErr)
		}
		if matErr != nil {
			if matErr.Error() != streamErr.Error() {
				t.Fatalf("error text diverged on %q:\n  materialized: %v\n  streaming:    %v", in, matErr, streamErr)
			}
			// Errors are sticky: the stream must not resume mid-trace.
			if _, err := cs.Next(); err == nil || err == io.EOF || err.Error() != streamErr.Error() {
				t.Fatalf("stream error not sticky on %q: %v then %v", in, streamErr, err)
			}
			return
		}

		// On accept: the hashed digest equals a collected stream's, and
		// the unhashed variant decodes the same trace.
		cc := NewCSVStream(strings.NewReader(in))
		if _, err := CollectStream(cc, cc.Info()); err != nil {
			t.Fatalf("collected stream rejected input ReadCSV accepted: %q: %v", in, err)
		}
		if got, want := cs.SHA256(), cc.SHA256(); got != want {
			t.Fatalf("incremental hash %s != collected hash %s on %q", got, want, in)
		}
		cu := NewCSVStreamUnhashed(strings.NewReader(in))
		unhashed, err := CollectStream(cu, cu.Info())
		if err != nil {
			t.Fatalf("unhashed stream rejected accepted input %q: %v", in, err)
		}
		if !reflect.DeepEqual(matApp, unhashed) {
			t.Fatalf("hashed and unhashed decodes differ on %q", in)
		}
	})
}

// FuzzTraceFormatParity is the three-way container parity fuzz: the
// same bytes are fed to every decode path of both trace formats, and
// all views of a trace must agree.
//
// Binary side (data as a VTRC image): the reader decoder
// (NewBinaryStream, drained by the materialized adapter) and a mapped
// file (MmapSource's validating pass over the same BinaryStream code)
// must agree on accept/reject with identical error text; on accept a
// replay must yield identical records, the canonical hash must equal
// the end-section checksum, a materialized re-encode must be
// bit-identical, and CanonicalHash over the decoded App must agree —
// so a trace's identity survives any decode → materialize → re-encode
// cycle. Damaged input fails cleanly (prefixed error, sticky, no
// panic).
//
// CSV side (data as CSV text): any CSV-accepted trace must encode to
// binary, decode back to the same App, and hash identically through
// both containers — the invariant valleyd's cache relies on when a CSV
// upload and its tracepack conversion share a cache entry.
//
// Seeded from the malformed/accept CSV corpora, a valid binary
// encoding, its truncations, and the corrupt binary corpus
// (binary_test.go).
func FuzzTraceFormatParity(f *testing.F) {
	for _, tc := range malformedCSVCases {
		f.Add([]byte(tc.in))
	}
	for _, in := range acceptCSVCases {
		f.Add([]byte(in))
	}
	base := encodeBinary(f, sampleApp())
	f.Add(base)
	for _, n := range []int{0, 4, 15, 16, 17, 24, 40, len(base) - 1} {
		if n >= 0 && n <= len(base) {
			f.Add(base[:n])
		}
	}
	for _, data := range corruptBinaryCases(f) {
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		binaryParity(t, data)
		csvToBinaryParity(t, data)
	})
}

// binaryParity holds the binary decode paths to identical behavior on
// one input.
func binaryParity(t *testing.T, data []byte) {
	bs := NewBinaryStream(bytes.NewReader(data))
	matApp, streamErr := CollectStream(bs, bs.Info())
	src, mmapErr := newMmapSource(data, nil)

	if (streamErr == nil) != (mmapErr == nil) {
		t.Fatalf("binary decoders disagree on accept/reject:\n  streaming: %v\n  mmap:      %v", streamErr, mmapErr)
	}
	if streamErr != nil {
		if !strings.HasPrefix(streamErr.Error(), "trace binary: ") {
			t.Fatalf("unprefixed streaming error: %v", streamErr)
		}
		if mmapErr.Error() != streamErr.Error() {
			t.Fatalf("error text diverged:\n  streaming: %v\n  mmap:      %v", streamErr, mmapErr)
		}
		// Errors are sticky: the stream must not resume mid-trace.
		if _, err := bs.Next(); err == nil || err == io.EOF || err.Error() != streamErr.Error() {
			t.Fatalf("stream error not sticky: %v then %v", streamErr, err)
		}
		return
	}

	sum := bs.SHA256()
	if src.SHA256() != sum {
		t.Fatalf("mmap hash %s != stream hash %s", src.SHA256(), sum)
	}
	mmApp, err := CollectStream(src.Stream(), src.Info())
	if err != nil {
		t.Fatalf("mmap replay errored on accepted input: %v", err)
	}
	if !reflect.DeepEqual(matApp, mmApp) {
		t.Fatal("streaming decode and mmap replay differ")
	}
	if replaySum, err := CanonicalHash(src); err != nil || replaySum != sum {
		t.Fatalf("mmap replay hashes to %s (err %v), want %s", replaySum, err, sum)
	}

	// Third way: the materialized App hashes and re-encodes identically.
	appSum, err := CanonicalHash(AppSource(matApp))
	if err != nil {
		t.Fatal(err)
	}
	if appSum != sum {
		t.Fatalf("materialized hash %s != decode hash %s", appSum, sum)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, matApp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		t.Fatal("re-encode of accepted input is not bit-identical")
	}
}

// csvToBinaryParity checks that any CSV-accepted trace crosses the
// container boundary losslessly: same App, same canonical hash.
func csvToBinaryParity(t *testing.T, data []byte) {
	in := string(data)
	cs := NewCSVStream(strings.NewReader(in))
	matApp, err := CollectStream(cs, cs.Info())
	if err != nil {
		return // CSV rejection parity is FuzzCSVStreamParity's job
	}
	csvSum := cs.SHA256()

	var buf bytes.Buffer
	if err := WriteBinary(&buf, matApp); err != nil {
		t.Fatal(err)
	}
	bs := NewBinaryStream(bytes.NewReader(buf.Bytes()))
	binApp, err := CollectStream(bs, bs.Info())
	if err != nil {
		t.Fatalf("binary decoder rejected the encoding of CSV-accepted %q: %v", in, err)
	}
	if binSum := bs.SHA256(); binSum != csvSum {
		t.Fatalf("binary hash %s != csv hash %s for %q", binSum, csvSum, in)
	}
	if !reflect.DeepEqual(matApp, binApp) {
		t.Fatalf("trace changed crossing containers on %q", in)
	}
}
