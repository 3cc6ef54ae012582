package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"valleymap/internal/testutil"
	"valleymap/internal/trace"
	"valleymap/internal/workload"
)

// waitJob polls a job until it leaves the queued/running states.
func waitJob(t *testing.T, s *Service, id string) Job {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		j, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %q vanished", id)
		}
		if terminalStatus(j.Status) {
			return j
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %q did not finish in time", id)
	return Job{}
}

func newTestServer(t *testing.T) (*Service, *httptest.Server) {
	t.Helper()
	// Leak check first: t.Cleanup runs LIFO, so the goroutine baseline
	// is re-checked after the server and service below are closed.
	testutil.CheckGoroutineLeaks(t)
	svc := New(Config{Workers: 4})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return svc, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
}

func TestHTTPProfileRoundTrip(t *testing.T) {
	_, ts := newTestServer(t)

	resp := postJSON(t, ts.URL+"/v1/profile", ProfileRequest{Workload: "MT", Scale: "tiny"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var env struct {
		ProfileResult
		CacheHit bool `json:"cache_hit"`
	}
	decodeBody(t, resp, &env)
	if env.CacheHit {
		t.Error("first request must not be a cache hit")
	}
	if env.Trace.Abbr != "MT" || len(env.PerBit) != 30 || !env.Valley {
		t.Errorf("unexpected profile: abbr=%q bits=%d valley=%v", env.Trace.Abbr, len(env.PerBit), env.Valley)
	}

	resp2 := postJSON(t, ts.URL+"/v1/profile", ProfileRequest{Workload: "MT", Scale: "tiny"})
	var env2 struct {
		CacheHit bool `json:"cache_hit"`
	}
	decodeBody(t, resp2, &env2)
	if !env2.CacheHit {
		t.Error("repeat request must hit the cache")
	}
}

func TestHTTPProfileCSVUpload(t *testing.T) {
	_, ts := newTestServer(t)

	// Round-trip a built-in workload through the CSV format.
	spec, _ := workload.ByAbbr("SP")
	app := spec.Build(workload.Tiny)
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, app); err != nil {
		t.Fatal(err)
	}
	csv := buf.String()

	resp, err := http.Post(ts.URL+"/v1/profile?window=12", "text/csv", strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d: %s", resp.StatusCode, b)
	}
	var env struct {
		ProfileResult
		CacheHit bool `json:"cache_hit"`
	}
	decodeBody(t, resp, &env)
	if env.Trace.SHA256 == "" {
		t.Error("uploaded trace must report its content hash")
	}
	if env.CacheHit {
		t.Error("first upload must miss")
	}

	// Re-uploading identical bytes hits the content-addressed cache.
	resp2, err := http.Post(ts.URL+"/v1/profile?window=12", "text/csv", strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	var env2 struct {
		CacheHit bool   `json:"cache_hit"`
		CacheKey string `json:"cache_key"`
	}
	decodeBody(t, resp2, &env2)
	if !env2.CacheHit {
		t.Error("identical upload must hit the content-addressed cache")
	}
}

func TestHTTPProfileBadInputs(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name string
		do   func() *http.Response
		want int
	}{
		{"empty body", func() *http.Response {
			resp, _ := http.Post(ts.URL+"/v1/profile", "application/json", strings.NewReader(""))
			return resp
		}, http.StatusBadRequest},
		{"unknown field", func() *http.Response {
			resp, _ := http.Post(ts.URL+"/v1/profile", "application/json", strings.NewReader(`{"wrkload":"MT"}`))
			return resp
		}, http.StatusBadRequest},
		{"unknown workload", func() *http.Response {
			return postJSON(t, ts.URL+"/v1/profile", ProfileRequest{Workload: "NOPE"})
		}, http.StatusNotFound},
		{"bad scheme", func() *http.Response {
			return postJSON(t, ts.URL+"/v1/profile", ProfileRequest{Workload: "MT", Scheme: "HUH"})
		}, http.StatusBadRequest},
		{"garbage csv", func() *http.Response {
			resp, _ := http.Post(ts.URL+"/v1/profile", "text/csv", strings.NewReader("not,a,trace"))
			return resp
		}, http.StatusBadRequest},
		{"bad query", func() *http.Response {
			resp, _ := http.Post(ts.URL+"/v1/profile?window=banana", "text/csv", strings.NewReader("K,k,1,0\n"))
			return resp
		}, http.StatusBadRequest},
		{"wrong method", func() *http.Response {
			resp, _ := http.Get(ts.URL + "/v1/profile")
			return resp
		}, http.StatusMethodNotAllowed},
	}
	for _, tc := range cases {
		resp := tc.do()
		if resp == nil {
			t.Fatalf("%s: no response", tc.name)
		}
		if resp.StatusCode != tc.want {
			b, _ := io.ReadAll(resp.Body)
			t.Errorf("%s: status = %d, want %d (%s)", tc.name, resp.StatusCode, tc.want, b)
		}
		resp.Body.Close()
	}
}

// TestHTTPProfileQueryNamesFirstBadOption: with several bad upload
// options, every request's 400 names the first in parse order.
func TestHTTPProfileQueryNamesFirstBadOption(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	h := svc.Handler()
	for i := 0; i < 20; i++ {
		req := httptest.NewRequest("POST", "/v1/profile?window=x&bits=y&line_bytes=z", strings.NewReader("K,k,1,0\n"))
		req.Header.Set("Content-Type", "text/csv")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), `window \"x\"`) {
			t.Fatalf("request %d: status %d, body %q; want 400 naming window \"x\"", i, rec.Code, rec.Body.String())
		}
	}
}

// TestHTTPScaleSchemeErrorBodies pins the 400 bodies for a bad scale or
// scheme on /v1/profile and /v1/simulate, word for word: clients match
// on them, and the CLIs share the parsers that produce them.
func TestHTTPScaleSchemeErrorBodies(t *testing.T) {
	_, ts := newTestServer(t)
	const (
		badScale  = `unknown scale "huge" (want tiny, small or full)`
		badScheme = `unknown scheme "XYZ" (want one of [BASE PM RMP PAE FAE ALL])`
	)
	cases := []struct {
		path string
		body any
		want string
	}{
		{"/v1/profile", ProfileRequest{Workload: "MT", Scale: "huge"}, badScale},
		{"/v1/profile", ProfileRequest{Workload: "MT", Scale: "tiny", Scheme: "XYZ"}, badScheme},
		{"/v1/simulate", SimulateRequest{Workloads: []string{"MT"}, Scale: "huge"}, badScale},
		{"/v1/simulate", SimulateRequest{Workloads: []string{"MT"}, Schemes: []string{"BASE", "XYZ"}, Scale: "tiny"}, badScheme},
	}
	for _, tc := range cases {
		resp := postJSON(t, ts.URL+tc.path, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s %+v: status %d, want 400", tc.path, tc.body, resp.StatusCode)
		}
		var e apiError
		decodeBody(t, resp, &e)
		if e.Error != tc.want {
			t.Errorf("%s %+v: error %q, want %q", tc.path, tc.body, e.Error, tc.want)
		}
	}
}

func TestHTTPProfileCSVTooLarge(t *testing.T) {
	svc := New(Config{Workers: 1, MaxTraceBytes: 64})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	body := "K,k,1,0\n" + strings.Repeat("R,0,0,R,100\n", 50)
	resp, err := http.Post(ts.URL+"/v1/profile", "text/csv", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d, want 413 (truncated traces must never be profiled): %s", resp.StatusCode, b)
	}
}

func TestHTTPProfileCSVExactlyOneByteOver(t *testing.T) {
	body := "K,k,1,0\nR,0,0,R,100\n"
	svc := New(Config{Workers: 1, MaxTraceBytes: int64(len(body)) - 1})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	// The body parses cleanly but is one byte over the cap: the
	// diagnostic one-byte reader allowance must not leak into accepting
	// oversize uploads.
	resp, err := http.Post(ts.URL+"/v1/profile", "text/csv", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413 for a body one byte over the cap", resp.StatusCode)
	}
}

func TestHTTPOversizeJSONBody(t *testing.T) {
	_, ts := newTestServer(t)
	big := `{"workloads":["` + strings.Repeat("x", 2<<20) + `"]}`
	resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413 for a 2 MiB control request", resp.StatusCode)
	}
}

func TestHTTPAdviseRoundTrip(t *testing.T) {
	_, ts := newTestServer(t)

	resp := postJSON(t, ts.URL+"/v1/advise", AdviseRequest{
		ProfileRequest: ProfileRequest{Workload: "MT", Scale: "tiny"},
		Schemes:        []string{"PAE", "FAE"},
		Seeds:          []int64{1},
	})
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d: %s", resp.StatusCode, b)
	}
	var res AdviseResult
	decodeBody(t, resp, &res)
	if len(res.Candidates) != 2 {
		t.Fatalf("got %d candidates, want 2", len(res.Candidates))
	}
	if res.Recommended.Gain <= 0 {
		t.Errorf("recommended gain = %g, want > 0", res.Recommended.Gain)
	}
	if res.Recommended.BIM.N() != 30 {
		t.Errorf("BIM did not survive the JSON round trip: n=%d", res.Recommended.BIM.N())
	}
}

func TestHTTPSimulateJobRoundTrip(t *testing.T) {
	svc, ts := newTestServer(t)

	resp := postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{
		Workloads: []string{"SP"},
		Schemes:   []string{"BASE", "PAE"},
		Scale:     "tiny",
	})
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d, want 202: %s", resp.StatusCode, b)
	}
	loc := resp.Header.Get("Location")
	var queued Job
	decodeBody(t, resp, &queued)
	if queued.ID == "" || loc != "/v1/jobs/"+queued.ID {
		t.Fatalf("bad job handle: id=%q location=%q", queued.ID, loc)
	}

	waitJob(t, svc, queued.ID)
	jr, err := http.Get(ts.URL + loc)
	if err != nil {
		t.Fatal(err)
	}
	if jr.StatusCode != http.StatusOK {
		t.Fatalf("job poll status = %d", jr.StatusCode)
	}
	var done Job
	decodeBody(t, jr, &done)
	if done.Status != JobDone {
		t.Fatalf("job status = %s (error %q)", done.Status, done.Error)
	}
	if done.Result == nil || len(done.Result.Cells) != 2 {
		t.Fatalf("job result missing cells: %+v", done.Result)
	}

	// Unknown job IDs are 404.
	nf, err := http.Get(ts.URL + "/v1/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	defer nf.Body.Close()
	if nf.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status = %d, want 404", nf.StatusCode)
	}
}

func TestHTTPHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t)

	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", hr.StatusCode)
	}
	var health map[string]any
	decodeBody(t, hr, &health)
	if health["status"] != "ok" {
		t.Errorf("healthz status field = %v", health["status"])
	}

	// Generate one hit and one miss, then check the exposition.
	postJSON(t, ts.URL+"/v1/profile", ProfileRequest{Workload: "SP", Scale: "tiny"}).Body.Close()
	postJSON(t, ts.URL+"/v1/profile", ProfileRequest{Workload: "SP", Scale: "tiny"}).Body.Close()

	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	body, _ := io.ReadAll(mr.Body)
	text := string(body)
	for _, want := range []string{
		"valleyd_requests_total{path=\"/v1/profile\",code=\"200\"} 2",
		"valleyd_profile_cache_hits_total 1",
		"valleyd_profile_cache_misses_total 1",
		"valleyd_profile_cache_hit_rate 0.5",
		"valleyd_workers ",
		"valleyd_queue_depth ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q\n%s", want, text)
		}
	}
}

func TestHTTPMetricsWorkerGauges(t *testing.T) {
	svc, _ := newTestServer(t)
	var buf bytes.Buffer
	if _, err := svc.metrics.reg.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), fmt.Sprintf("valleyd_workers %d", 4)) {
		t.Errorf("metrics must report the configured pool size:\n%s", buf.String())
	}
}
