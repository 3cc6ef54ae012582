package main

// Layer attribution: the span log a traced run keeps in memory, CPU
// profiles read through `go tool pprof -top` and aggregated by
// package, and span-tree arithmetic over the service's job traces.

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"valleymap/internal/gpusim"
	"valleymap/internal/mapping"
	"valleymap/internal/obs"
	"valleymap/internal/workload"
)

// spanRec is one recorded span: a layer call made by or observed from
// the benchmark. Parent 0 means top level.
type spanRec struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

// spanLog keeps a traced run's spans in memory until the run record is
// written.
type spanLog struct {
	mu    sync.Mutex
	spans []spanRec
}

func (l *spanLog) add(parent int, name string, start, end time.Time) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, spanRec{ID: id, Parent: parent, Name: name, Start: start, End: end})
	return id
}

// open starts a span now; end closes it.
func (l *spanLog) open(parent int, name string) int {
	return l.add(parent, name, time.Now(), time.Time{})
}

func (l *spanLog) end(id int) {
	l.mu.Lock()
	l.spans[id-1].End = time.Now()
	l.mu.Unlock()
}

// addTree records a service span tree under parent.
func (l *spanLog) addTree(parent int, nodes []*obs.SpanNode) {
	for _, n := range nodes {
		id := l.add(parent, n.Name, n.Start, spanEnd(n))
		l.addTree(id, n.Children)
	}
}

func spanEnd(n *obs.SpanNode) time.Time {
	return n.Start.Add(time.Duration(n.DurationUS) * time.Microsecond)
}

// covered returns how much of [start, end] the spans cover, counting
// overlaps once.
func covered(start, end time.Time, spans []*obs.SpanNode) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, s := range spans {
		a, b := s.Start, spanEnd(s)
		if a.Before(start) {
			a = start
		}
		if b.After(end) {
			b = end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a.After(cur.b):
			total += cur.b.Sub(cur.a)
			cur = v
		case v.b.After(cur.b):
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(n *obs.SpanNode, children []*obs.SpanNode) time.Duration {
	return time.Duration(n.DurationUS)*time.Microsecond - covered(n.Start, spanEnd(n), children)
}

func findSpans(nodes []*obs.SpanNode, name string) []*obs.SpanNode {
	var out []*obs.SpanNode
	for _, n := range nodes {
		if n.Name == name {
			out = append(out, n)
		}
		out = append(out, findSpans(n.Children, name)...)
	}
	return out
}

// profiled runs f under a CPU profile written to cpu.pprof in the run
// record and sets every cpu.<layer> metric from it.
func (r *run) profiled(f func()) error {
	path := filepath.Join(r.dir, "cpu.pprof")
	shares, err := profile(path, f)
	if err != nil {
		return err
	}
	for _, l := range cpuLayers {
		r.set("cpu."+l, shares[l])
	}
	return nil
}

// profile runs f under a CPU profile written to path and returns each
// layer's share of the flat CPU samples.
func profile(path string, f func()) (map[string]float64, error) {
	out, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(out); err != nil {
		out.Close()
		return nil, err
	}
	f()
	pprof.StopCPUProfile()
	if err := out.Close(); err != nil {
		return nil, err
	}
	return cpuShares(path)
}

// cpuShares reads a CPU profile with `go tool pprof -top`, which ships
// with the toolchain, and sums the flat share of each layer.
func cpuShares(path string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", path)
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -top %s: %w", path, err)
	}
	shares := map[string]float64{}
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			continue // the column header
		}
		shares[layerOf(f[5])] += pct / 100
	}
	return shares, nil
}

// layerOf maps a profiled function name to its cpuLayers bucket by the
// function's package path. The standard library is bucketed by role:
// runtime (scheduler, allocator, GC, locks, and the assembly helpers
// that carry no package), net (net and net/http), json (encoding/json
// with the reflect and strconv work it drives), bytes (bytes, bufio and
// their assembly kernels), crypto (the trace content hashes) and
// syscall.
func layerOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/') + 1
	dot := strings.IndexByte(fn[slash:], '.')
	if dot < 0 {
		return "runtime"
	}
	pkg := fn[:slash+dot]
	has := func(prefixes ...string) bool {
		for _, p := range prefixes {
			if pkg == p || strings.HasPrefix(pkg, p+"/") {
				return true
			}
		}
		return false
	}
	switch {
	case strings.HasPrefix(pkg, "valleymap/internal/"):
		name := strings.TrimPrefix(pkg, "valleymap/internal/")
		for _, l := range cpuLayers {
			if l == name {
				return l
			}
		}
	case has("runtime", "internal/runtime", "sync", "internal/sync"):
		return "runtime"
	case has("net"):
		return "net"
	case has("encoding/json", "reflect", "strconv"):
		return "json"
	case has("bytes", "bufio", "internal/bytealg"):
		return "bytes"
	case has("crypto"):
		return "crypto"
	case has("syscall", "internal/poll", "os"):
		return "syscall"
	}
	return "other"
}

// attribution names the layers that own one simulated cell's CPU time.
type attribution struct {
	// Top is the layer with the largest flat share; TopRepo the largest
	// among this repository's packages.
	Top     string             `json:"top_layer"`
	TopRepo string             `json:"top_repo_layer"`
	Shares  map[string]float64 `json:"shares"`
}

// outsideRepo are the cpuLayers buckets that are not this repository's
// packages.
var outsideRepo = map[string]bool{"runtime": true, "net": true, "json": true, "bytes": true, "crypto": true, "syscall": true, "other": true}

func newAttribution(shares map[string]float64) attribution {
	a := attribution{Shares: shares}
	for _, l := range cpuLayers {
		if a.Top == "" || shares[l] > shares[a.Top] {
			a.Top = l
		}
		if !outsideRepo[l] && (a.TopRepo == "" || shares[l] > shares[a.TopRepo]) {
			a.TopRepo = l
		}
	}
	return a
}

// attributeMT CPU-profiles the MT cell under BASE and under PAE, each
// repeated for a share of the window, and records which layer owns it
// in attribution.json.
func (r *run) attributeMT(scale workload.Scale, bimSeed int64) error {
	spec, _ := workload.ByAbbr("MT")
	app := spec.Build(scale)
	cfg := gpusim.Baseline()
	runner := gpusim.NewRunner()
	out := map[string]attribution{}
	for _, sc := range []mapping.Scheme{mapping.BASE, mapping.PAE} {
		m := mapping.MustNew(sc, cfg.Layout, mapping.Options{Seed: bimSeed})
		shares, err := profile(filepath.Join(r.dir, "cpu-MT-"+string(sc)+".pprof"), func() {
			start := time.Now()
			for first := true; first || time.Since(start) < r.probeBudget(); first = false {
				runner.Run(app, m, cfg)
			}
		})
		if err != nil {
			return err
		}
		a := newAttribution(shares)
		out["MT/"+string(sc)] = a
		fmt.Fprintf(os.Stderr, "MT/%s: top layer %s (%.0f%%), top repository layer %s (%.0f%%)\n",
			sc, a.Top, 100*shares[a.Top], a.TopRepo, 100*shares[a.TopRepo])
	}
	return writeJSON(filepath.Join(r.dir, "attribution.json"), out)
}
