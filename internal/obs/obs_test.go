package obs

import (
	"bytes"
	"context"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1e-6, 4, 4)
	want := []float64{1e-6, 4e-6, 1.6e-5, 6.4e-5}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if diff := got[i]/want[i] - 1; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("bucket[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestHistogramObserve(t *testing.T) {
	h := NewHistogram("test_seconds", "help", []float64{0.001, 0.01, 0.1})
	h.Observe(0.0005) // bucket 0
	h.Observe(0.001)  // bucket 0 (le is inclusive)
	h.Observe(0.05)   // bucket 2
	h.Observe(5)      // +Inf bucket
	if got := h.Count(); got != 4 {
		t.Fatalf("count = %d, want 4", got)
	}
	if got, want := h.Sum(), 0.0005+0.001+0.05+5; got != want {
		t.Fatalf("sum = %g, want %g", got, want)
	}
	out := string(h.Collect(nil))
	for _, want := range []string{
		"# HELP test_seconds help\n",
		"# TYPE test_seconds histogram\n",
		`test_seconds_bucket{le="0.001"} 2`,
		`test_seconds_bucket{le="0.01"} 2`,
		`test_seconds_bucket{le="0.1"} 3`,
		`test_seconds_bucket{le="+Inf"} 4`,
		"test_seconds_count 4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramObserveZeroAlloc(t *testing.T) {
	h := NewHistogram("alloc_test_seconds", "help", nil)
	allocs := testing.AllocsPerRun(1000, func() { h.Observe(0.0123) })
	if allocs != 0 {
		t.Fatalf("Observe allocates %v allocs/op, want 0", allocs)
	}
	v := NewHistogramVec("alloc_vec_seconds", "help", []string{"stage"}, nil)
	child := v.With("decode")
	allocs = testing.AllocsPerRun(1000, func() { child.ObserveDuration(3 * time.Millisecond) })
	if allocs != 0 {
		t.Fatalf("child Observe allocates %v allocs/op, want 0", allocs)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram("conc_seconds", "help", nil)
	var wg sync.WaitGroup
	const goroutines, per = 8, 1000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != goroutines*per {
		t.Fatalf("count = %d, want %d", got, goroutines*per)
	}
	if got, want := h.Sum(), float64(goroutines*per)*0.001; got < want*0.999 || got > want*1.001 {
		t.Fatalf("sum = %g, want ~%g", got, want)
	}
}

func TestHistogramVecChildren(t *testing.T) {
	v := NewHistogramVec("vec_seconds", "help", []string{"path", "code"}, []float64{1})
	v.With("/a", "200").Observe(0.5)
	v.With("/a", "200").Observe(2)
	v.With("/b", "404").Observe(0.1)
	out := string(v.Collect(nil))
	for _, want := range []string{
		`vec_seconds_bucket{path="/a",code="200",le="1"} 1`,
		`vec_seconds_bucket{path="/a",code="200",le="+Inf"} 2`,
		`vec_seconds_count{path="/a",code="200"} 2`,
		`vec_seconds_bucket{path="/b",code="404",le="+Inf"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "# TYPE vec_seconds histogram"); n != 1 {
		t.Errorf("TYPE line appears %d times, want 1", n)
	}
}

func TestSpanTree(t *testing.T) {
	tr := NewTrace("abc", 0)
	root := tr.StartAt(0, "job", time.Now().Add(-time.Second))
	enq := tr.Start(root.ID(), "enqueue")
	enq.End()
	cell := tr.Start(root.ID(), "cell", Attr{"workload", "MT"}, Attr{"scheme", "BASE"})
	qw := tr.Start(cell.ID(), "queue_wait")
	qw.End()
	cell.Annotate(Attr{"cached", "false"})
	cell.End()
	root.End()

	roots := tr.Tree()
	if len(roots) != 1 || roots[0].Name != "job" {
		t.Fatalf("roots = %+v, want single job root", roots)
	}
	job := roots[0]
	if job.DurationUS < 900_000 {
		t.Errorf("job duration = %dus, want >= ~1s", job.DurationUS)
	}
	if len(job.Children) != 2 {
		t.Fatalf("job children = %d, want 2", len(job.Children))
	}
	cellNode := job.Children[1]
	if cellNode.Name != "cell" || cellNode.Attrs["workload"] != "MT" || cellNode.Attrs["cached"] != "false" {
		t.Errorf("cell node = %+v", cellNode)
	}
	if len(cellNode.Children) != 1 || cellNode.Children[0].Name != "queue_wait" {
		t.Errorf("cell children = %+v", cellNode.Children)
	}
	if tr.Dropped() != 0 {
		t.Errorf("dropped = %d, want 0", tr.Dropped())
	}
}

func TestSpanRingDropsOldest(t *testing.T) {
	tr := NewTrace("ring", 4)
	var refs []SpanRef
	for i := 0; i < 10; i++ {
		refs = append(refs, tr.Start(0, "s"))
	}
	for _, r := range refs {
		r.End() // ending overwritten spans must be harmless
	}
	if got := tr.Dropped(); got != 6 {
		t.Fatalf("dropped = %d, want 6", got)
	}
	roots := tr.Tree()
	if len(roots) != 4 {
		t.Fatalf("retained roots = %d, want 4", len(roots))
	}
	// The newest spans survive.
	if roots[len(roots)-1].ID != 10 {
		t.Errorf("newest retained ID = %d, want 10", roots[len(roots)-1].ID)
	}
}

func TestSpanOrphanReroots(t *testing.T) {
	tr := NewTrace("orphan", 2)
	parent := tr.Start(0, "parent")
	tr.Start(parent.ID(), "a")
	tr.Start(parent.ID(), "b") // overwrites parent in the 2-slot ring
	roots := tr.Tree()
	if len(roots) != 2 {
		t.Fatalf("roots = %d, want 2 (orphans re-root)", len(roots))
	}
}

func TestNilTraceIsNoop(t *testing.T) {
	var tr *Trace
	sp := tr.Start(0, "x")
	sp.End()
	sp.Annotate(Attr{"k", "v"})
	if tr.Tree() != nil || tr.Dropped() != 0 || tr.ID() != "" {
		t.Fatal("nil trace must be inert")
	}
}

func TestParseLevelAndNewLogger(t *testing.T) {
	for in, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo, "": slog.LevelInfo,
		"warn": slog.LevelWarn, "error": slog.LevelError,
	} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel(loud) should fail")
	}

	var buf bytes.Buffer
	l, err := NewLogger(&buf, "json", "info")
	if err != nil {
		t.Fatal(err)
	}
	l.Info("hello", "k", "v")
	if !strings.Contains(buf.String(), `"msg":"hello"`) {
		t.Errorf("json log output = %q", buf.String())
	}
	l.Debug("hidden")
	if strings.Contains(buf.String(), "hidden") {
		t.Error("debug line leaked at info level")
	}
	if _, err := NewLogger(&buf, "yaml", "info"); err == nil {
		t.Error("NewLogger(yaml) should fail")
	}
}

func TestContextHelpers(t *testing.T) {
	ctx := context.Background()
	if Logger(ctx) != slog.Default() {
		t.Error("bare context should yield the default logger")
	}
	var buf bytes.Buffer
	l := slog.New(slog.NewTextHandler(&buf, nil))
	ctx = WithLogger(ctx, l)
	if Logger(ctx) != l {
		t.Error("WithLogger round trip failed")
	}
	if TraceID(ctx) != "" {
		t.Error("bare context should have no trace ID")
	}
	ctx = WithTraceID(ctx, "tid")
	if TraceID(ctx) != "tid" {
		t.Error("WithTraceID round trip failed")
	}
}

func TestNewTraceID(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	if len(a) != 32 || a == b {
		t.Fatalf("trace IDs = %q, %q: want 32 hex chars, distinct", a, b)
	}
}

func TestCounterAndVec(t *testing.T) {
	c := NewCounter("jobs_total", "help")
	c.Inc()
	c.Add(2)
	if got := c.Value(); got != 3 {
		t.Fatalf("value = %v, want 3", got)
	}
	if out, want := string(c.Collect(nil)), "# HELP jobs_total help\n# TYPE jobs_total counter\njobs_total 3\n"; out != want {
		t.Errorf("exposition = %q, want %q", out, want)
	}

	v := NewCounterVec("reqs_total", "help", "path", "code")
	v.With("/a", "200").Add(1234567)
	v.With("/b", "404").Inc()
	v.With("/a", "200").Inc()
	out := string(v.Collect(nil))
	for _, want := range []string{
		`reqs_total{path="/a",code="200"} 1234568`,
		`reqs_total{path="/b",code="404"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "# TYPE reqs_total counter"); n != 1 {
		t.Errorf("TYPE line appears %d times, want 1", n)
	}
}

func TestCounterAddZeroAllocConcurrent(t *testing.T) {
	c := NewCounterVec("alloc_total", "help", "tier").With("mem")
	if allocs := testing.AllocsPerRun(1000, c.Inc); allocs != 0 {
		t.Fatalf("Inc allocates %v allocs/op, want 0", allocs)
	}
	before := c.Value()
	var wg sync.WaitGroup
	const goroutines, per = 8, 1000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Add(0.5)
			}
		}()
	}
	wg.Wait()
	if got, want := c.Value()-before, float64(goroutines*per)*0.5; got != want {
		t.Fatalf("concurrent adds = %v, want %v", got, want)
	}
}
