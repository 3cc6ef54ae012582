package service

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestMetricsExpositionLint holds the full /metrics document to the
// Prometheus text-format contract, promlint-style: every family carries
// exactly one # HELP and one # TYPE line before its first sample,
// histogram bucket series are cumulative and end at le="+Inf" matching
// _count, and no series (name + label set) appears twice. Traffic is
// generated first so every histogram family has live samples.
func TestMetricsExpositionLint(t *testing.T) {
	body := scrapeAfterTraffic(t, Config{Workers: 1})
	lintExposition(t, body)

	for _, fam := range []string{
		"valleyd_http_request_duration_seconds",
		"valleyd_queue_wait_seconds",
		"valleyd_cell_simulation_seconds",
		"valleyd_stream_stage_seconds",
	} {
		if !strings.Contains(body, "# TYPE "+fam+" histogram") {
			t.Errorf("histogram family %s missing from /metrics", fam)
		}
		if !strings.Contains(body, fam+"_count") {
			t.Errorf("histogram family %s has no samples", fam)
		}
	}

	if got := strings.Count(body, `valleyd_http_request_duration_seconds_count{path="other",code="404"}`); got != 1 {
		t.Errorf("unknown paths produced %d path=\"other\" 404 series, want exactly 1 (cap broken?)", got)
	}
}

// TestMetricsFamiliesGolden pins the exposition's shape: every HELP and
// TYPE line and every series identity (name plus labels, value
// stripped), sorted. The config turns on the one conditional family
// set, the spill gauges, with a spill directory, so a family that
// silently disappears, changes type or help text, or grows a label
// shows up as a golden diff. Run with -update after an intentional
// change.
func TestMetricsFamiliesGolden(t *testing.T) {
	body := scrapeAfterTraffic(t, Config{
		Workers:  1,
		SpillDir: filepath.Join(t.TempDir(), "spill"),
	})
	lintExposition(t, body)

	var lines []string
	for _, line := range strings.Split(body, "\n") {
		switch {
		case line == "":
		case strings.HasPrefix(line, "#"):
			lines = append(lines, line)
		default:
			lines = append(lines, line[:strings.LastIndexByte(line, ' ')])
		}
	}
	sort.Strings(lines)
	got := []byte(strings.Join(lines, "\n") + "\n")

	goldenPath := filepath.Join("testdata", "metrics_families.golden")
	if *updateGolden {
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: %s (%d lines)", goldenPath, len(lines))
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create it): %v", err)
	}
	if string(got) == string(want) {
		return
	}
	have := map[string]bool{}
	for _, l := range lines {
		have[l] = true
	}
	wanted := map[string]bool{}
	for _, l := range strings.Split(strings.TrimSuffix(string(want), "\n"), "\n") {
		wanted[l] = true
		if !have[l] {
			t.Errorf("missing from /metrics: %s", l)
		}
	}
	for _, l := range lines {
		if !wanted[l] {
			t.Errorf("not in golden: %s", l)
		}
	}
	t.Fatal("/metrics families drifted from golden (run with -update if intentional)")
}

// scrapeAfterTraffic builds a service from cfg, exercises every
// instrument — HTTP requests (including unrouted paths, which must all
// fold into path="other"), a profile (streaming pipeline stages) and a
// sweep (queue wait + cell seconds) — and returns its /metrics body.
func scrapeAfterTraffic(t *testing.T, cfg Config) string {
	t.Helper()
	svc := New(cfg)
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	for _, path := range []string{"/healthz", "/no/such/endpoint", "/also/not/real"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp := postJSON(t, ts.URL+"/v1/profile", ProfileRequest{Workload: "SP", Scale: "tiny"})
	resp.Body.Close()
	job, err := svc.Simulate(SimulateRequest{Workloads: []string{"SP"}, Schemes: []string{"BASE"}, Scale: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, svc, job.ID)

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type = %q, want the version 0.0.4 text exposition type", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// lintExposition applies the format rules to one exposition document.
func lintExposition(t *testing.T, body string) {
	t.Helper()
	type family struct {
		help, typ int
		typName   string
	}
	families := map[string]*family{}
	fam := func(name string) *family {
		f, ok := families[name]
		if !ok {
			f = &family{}
			families[name] = f
		}
		return f
	}
	// sampleFamily maps a sample's metric name to its declaring family:
	// histogram samples use the _bucket/_sum/_count suffixes of the
	// family that declared TYPE histogram.
	sampleFamily := func(name string) (string, *family) {
		if f, ok := families[name]; ok && f.typ > 0 {
			return name, f
		}
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suffix)
			if base == name {
				continue
			}
			if f, ok := families[base]; ok && f.typName == "histogram" {
				return base, f
			}
		}
		return name, nil
	}

	seenSeries := map[string]bool{}
	type bucket struct {
		le string
		v  float64
	}
	buckets := map[string][]bucket{} // family+labels (minus le) → cumulative counts
	counts := map[string]float64{}   // family+labels → _count value
	var bucketOrder []string

	for i, line := range strings.Split(body, "\n") {
		lineNo := i + 1
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, found := strings.Cut(rest, " ")
			if !found {
				t.Errorf("line %d: HELP without text: %q", lineNo, line)
			}
			fam(name).help++
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, found := strings.Cut(rest, " ")
			if !found {
				t.Errorf("line %d: TYPE without a type: %q", lineNo, line)
				continue
			}
			f := fam(name)
			f.typ++
			f.typName = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Errorf("line %d: unknown comment form: %q", lineNo, line)
			continue
		}

		// Sample line: name{labels} value — split at the last space.
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			t.Errorf("line %d: sample without a value: %q", lineNo, line)
			continue
		}
		series, valStr := line[:cut], line[cut+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Errorf("line %d: bad sample value %q", lineNo, valStr)
			continue
		}
		if seenSeries[series] {
			t.Errorf("line %d: duplicate series %q", lineNo, series)
		}
		seenSeries[series] = true

		name := series
		labels := ""
		if j := strings.IndexByte(series, '{'); j >= 0 {
			name, labels = series[:j], series[j:]
		}
		famName, f := sampleFamily(name)
		if f == nil {
			t.Errorf("line %d: sample %q has no # TYPE declaration above it", lineNo, name)
			continue
		}
		if f.help != 1 || f.typ != 1 {
			t.Errorf("line %d: family %s has %d HELP / %d TYPE lines before this sample, want exactly 1/1",
				lineNo, famName, f.help, f.typ)
		}

		if f.typName == "histogram" {
			switch {
			case strings.HasSuffix(name, "_bucket"):
				le := ""
				rest := labels
				for _, pair := range strings.Split(strings.Trim(rest, "{}"), ",") {
					if v, ok := strings.CutPrefix(pair, `le="`); ok {
						le = strings.TrimSuffix(v, `"`)
					}
				}
				if le == "" {
					t.Errorf("line %d: histogram bucket without le label: %q", lineNo, line)
					continue
				}
				rest = strings.ReplaceAll(labels, `le="`+le+`",`, "")
				rest = strings.ReplaceAll(rest, `,le="`+le+`"`, "")
				rest = strings.ReplaceAll(rest, `le="`+le+`"`, "")
				if rest == "{}" {
					rest = "" // unlabeled family: match the bare _count series
				}
				key := famName + "|" + rest
				if _, ok := buckets[key]; !ok {
					bucketOrder = append(bucketOrder, key)
				}
				buckets[key] = append(buckets[key], bucket{le: le, v: val})
			case strings.HasSuffix(name, "_count"):
				counts[famName+"|"+labels] = val
			}
		}
	}

	for _, key := range bucketOrder {
		bs := buckets[key]
		last := -1.0
		for _, b := range bs {
			if b.v < last {
				t.Errorf("histogram %s: bucket le=%q count %g below previous %g (not cumulative)", key, b.le, b.v, last)
			}
			last = b.v
		}
		if bs[len(bs)-1].le != "+Inf" {
			t.Errorf("histogram %s: last bucket le=%q, want +Inf", key, bs[len(bs)-1].le)
		}
		if c, ok := counts[key]; !ok {
			t.Errorf("histogram %s: no _count series", key)
		} else if c != bs[len(bs)-1].v {
			t.Errorf("histogram %s: _count %g != +Inf bucket %g", key, c, bs[len(bs)-1].v)
		}
	}
}
