package service

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"valleymap/internal/trace"
)

func decodeRec(t *testing.T, rec *httptest.ResponseRecorder, v any) {
	t.Helper()
	if err := json.NewDecoder(rec.Body).Decode(v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
}

// syntheticCSV generates a valid CSV trace of `total` requests on the
// fly, without ever materializing the body or the trace: the upload-side
// counterpart of the streaming profiler, so tests can push 10×-scale
// traces through the handler while allocating almost nothing themselves.
type syntheticCSV struct {
	total, perTB int
	emitted      int
	header       bool
	line         []byte
	off          int
}

func (g *syntheticCSV) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		if g.off >= len(g.line) {
			if !g.next() {
				if n == 0 {
					return 0, io.EOF
				}
				return n, nil
			}
			g.off = 0
		}
		c := copy(p[n:], g.line[g.off:])
		g.off += c
		n += c
	}
	return n, nil
}

func (g *syntheticCSV) next() bool {
	g.line = g.line[:0]
	if !g.header {
		g.header = true
		g.line = append(g.line, "K,synthetic,4,100\n"...)
		return true
	}
	if g.emitted >= g.total {
		return false
	}
	tb := g.emitted / g.perTB
	i := g.emitted % g.perTB
	g.emitted++
	// Strided pattern with some per-request jitter so every address bit
	// carries structure worth profiling.
	addr := (uint64(tb)*8192 + uint64(i)*4 + uint64(i%7)*256) & (1<<30 - 1)
	g.line = append(g.line, 'R', ',')
	g.line = strconv.AppendInt(g.line, int64(tb), 10)
	g.line = append(g.line, ',')
	g.line = strconv.AppendInt(g.line, int64(i/32), 10)
	g.line = append(g.line, ",R,"...)
	g.line = strconv.AppendUint(g.line, addr, 16)
	g.line = append(g.line, '\n')
	return true
}

func (g *syntheticCSV) size() int64 {
	n, err := io.Copy(io.Discard, &syntheticCSV{total: g.total, perTB: g.perTB})
	if err != nil {
		panic(err)
	}
	return n
}

// uploadSynthetic pushes a synthetic trace through POST /v1/profile and
// returns the bytes allocated during the request.
func uploadSynthetic(t *testing.T, h http.Handler, requests int) (allocated uint64, res *ProfileResult) {
	t.Helper()
	req := httptest.NewRequest("POST", "/v1/profile?window=12&bits=30", &syntheticCSV{total: requests, perTB: 128})
	req.Header.Set("Content-Type", "text/csv")
	rec := httptest.NewRecorder()

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	h.ServeHTTP(rec, req)
	runtime.ReadMemStats(&m1)

	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var env struct{ ProfileResult }
	decodeRec(t, rec, &env)
	return m1.TotalAlloc - m0.TotalAlloc, &env.ProfileResult
}

// TestStreamingUploadBoundedAllocs is the acceptance check for the
// streaming upload path: total bytes allocated while profiling a trace
// must be (near-)independent of trace length — O(window × bits) state
// plus fixed pipeline buffers — so a 10× larger upload must not allocate
// meaningfully more, where the old materialized path allocated O(trace).
func TestStreamingUploadBoundedAllocs(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	h := svc.Handler()

	const base = 100_000
	// Warm up fixed costs (scanner buffers, mux, first-request paths).
	uploadSynthetic(t, h, 1000)

	alloc1, res1 := uploadSynthetic(t, h, base)
	alloc10, res10 := uploadSynthetic(t, h, 10*base)

	if res1.Trace.Requests == 0 || res10.Trace.Requests <= res1.Trace.Requests {
		t.Fatalf("unexpected request counts: %d then %d", res1.Trace.Requests, res10.Trace.Requests)
	}
	// A materialized decode of the 10× body would need ≥ 16 MB for its
	// request slices alone (1M requests × 16 B); the streaming path must
	// stay flat. Allow 2× + 1 MiB of slack for noise.
	if alloc10 > 2*alloc1+1<<20 {
		t.Errorf("allocations scale with trace size: %d B for %d requests vs %d B for %d requests",
			alloc10, res10.Trace.Requests, alloc1, res1.Trace.Requests)
	}
	t.Logf("allocated %d B for %d requests, %d B for %d requests",
		alloc1, res1.Trace.Requests, alloc10, res10.Trace.Requests)
}

// TestStreamingUploadMatchesMaterialized: the streamed upload result
// (profile, hash, cache key, trace info) must be identical to profiling
// the materialized decode of the same bytes.
func TestStreamingUploadMatchesMaterialized(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()

	gen := &syntheticCSV{total: 50_000, perTB: 128}
	streamed, hit, err := svc.ProfileStream(&syntheticCSV{total: gen.total, perTB: gen.perTB}, ProfileRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("first upload must not hit")
	}

	cs := trace.NewCSVStream(&syntheticCSV{total: gen.total, perTB: gen.perTB})
	app, err := trace.CollectStream(cs, cs.Info())
	if err != nil {
		t.Fatal(err)
	}
	sum := cs.SHA256()
	if sum != streamed.Trace.SHA256 {
		t.Fatalf("incremental hash %s != materialized hash %s", streamed.Trace.SHA256, sum)
	}
	// The materialized app goes through the same compute as every other
	// input, under its content hash.
	opt, err := ProfileRequest{}.options()
	if err != nil {
		t.Fatal(err)
	}
	in := &profileInput{src: trace.AppSource(app), stages: &svc.metrics.stageNative}
	in.identify(in.src.Info(), sum)
	mat, hit, err := svc.profile(in, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("materialized profile of identical bytes must hit the streamed entry")
	}
	if mat.CacheKey != streamed.CacheKey {
		t.Errorf("cache keys differ: %s vs %s", mat.CacheKey, streamed.CacheKey)
	}
	if len(mat.PerBit) != len(streamed.PerBit) {
		t.Fatal("per-bit lengths differ")
	}
	for b := range mat.PerBit {
		if mat.PerBit[b] != streamed.PerBit[b] {
			t.Fatalf("bit %d: streamed %.17g != materialized %.17g", b, streamed.PerBit[b], mat.PerBit[b])
		}
	}
	if mat.Trace.Kernels != streamed.Trace.Kernels || mat.Trace.Requests != streamed.Trace.Requests {
		t.Errorf("trace info differs: %+v vs %+v", streamed.Trace, mat.Trace)
	}
}

// TestStreamingUploadWithScheme drives the batch-transform hook through
// the HTTP surface (post-mapping profile of an uploaded trace).
func TestStreamingUploadWithScheme(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	h := svc.Handler()

	req := httptest.NewRequest("POST", "/v1/profile?scheme=PAE&seed=2&window=12",
		&syntheticCSV{total: 20_000, perTB: 128})
	req.Header.Set("Content-Type", "text/csv")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var env struct{ ProfileResult }
	decodeRec(t, rec, &env)
	if env.Scheme != "PAE" || env.Seed != 2 {
		t.Errorf("scheme/seed = %s/%d", env.Scheme, env.Seed)
	}
	if env.MeanChannel == 0 {
		t.Error("post-mapping profile has zero channel entropy")
	}
}

// TestStreamingUploadRejectsMalformed keeps the 400 path intact through
// the streaming rewrite.
func TestStreamingUploadRejectsMalformed(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	h := svc.Handler()

	req := httptest.NewRequest("POST", "/v1/profile", strings.NewReader("K,k,1,1\nR,0,0,X,zz\n"))
	req.Header.Set("Content-Type", "text/csv")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "bad trace") {
		t.Errorf("error body %q lacks decode context", rec.Body.String())
	}
}

// BenchmarkStreamingProfileUpload measures the full streaming hot path
// (HTTP handler → decoder → coalescer → accumulator) per upload.
// ProfileStream computes before consulting the cache, so every
// iteration does full work even though the body repeats.
func BenchmarkStreamingProfileUpload(b *testing.B) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	h := svc.Handler()
	const requests = 50_000
	body := &syntheticCSV{total: requests, perTB: 128}
	b.SetBytes(body.size())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/v1/profile?window=12", &syntheticCSV{total: requests, perTB: 128})
		req.Header.Set("Content-Type", "text/csv")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status = %d", rec.Code)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/requests, "ns/request")
}

// TestJSONEmbeddedTraceCachesByHash: the trace_csv JSON path hashes the
// in-memory string up front, so repeat requests hit the cache without a
// second profiling pass and share entries with raw CSV uploads of the
// same bytes.
func TestJSONEmbeddedTraceCachesByHash(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()

	var csv strings.Builder
	if _, err := io.Copy(&csv, &syntheticCSV{total: 5000, perTB: 128}); err != nil {
		t.Fatal(err)
	}
	req := ProfileRequest{TraceCSV: csv.String()}
	first, hit, err := svc.Profile(req)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("first embedded trace must miss")
	}
	again, hit, err := svc.Profile(req)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("repeat embedded trace must hit by content hash")
	}
	if again.CacheKey != first.CacheKey || again.Trace.SHA256 != first.Trace.SHA256 {
		t.Errorf("cache identity drifted: %+v vs %+v", again.Trace, first.Trace)
	}
	// The raw-CSV streaming upload of the same bytes lands on the same
	// entry.
	streamed, hit, err := svc.ProfileStream(strings.NewReader(csv.String()), ProfileRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if !hit || streamed.CacheKey != first.CacheKey {
		t.Errorf("CSV upload did not share the embedded trace's entry (hit=%v, key %s vs %s)",
			hit, streamed.CacheKey, first.CacheKey)
	}
}
