package main

// compare is the regression gate: it reads two sets of run records —
// runs of a parent commit and of a change, made with identical benchmark
// code and settings — pairs them by workload and seed, and decides per
// metric and workload whether the change gained, regressed, held, or
// cannot be told apart from noise.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// minPairs is the fewest paired runs compare accepts per workload.
const minPairs = 10

// specMetric is one metric of BENCHMARK.json; per-layer metrics have no
// bound.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the harness reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("parsing %s: %w", path, err)
	}
	return s, nil
}

// loadRecords reads every results.json below dir.
func loadRecords(dir string) ([]record, error) {
	var out []record
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || d.Name() != "results.json" {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var rec record
		if err := json.Unmarshal(b, &rec); err != nil {
			return fmt.Errorf("parsing %s: %w", path, err)
		}
		out = append(out, rec)
		return nil
	})
	if err == nil && len(out) == 0 {
		err = fmt.Errorf("no results.json under %s", dir)
	}
	return out, err
}

// Verdicts of a compared metric.
const (
	verdictGain         = "gain"
	verdictHolds        = "no-regression"
	verdictRegression   = "regression"
	verdictUnresolved   = "unresolved"
	verdictIdentical    = "identical"
	verdictSimChanged   = "changed"
	verdictMissingValue = "missing"
)

// row is one metric × workload comparison.
type row struct {
	Workload     string
	Metric       string
	Pairs        int
	ParentFirst  int // pairs whose parent run started first
	ParentMedian float64
	ChangeMedian float64
	ParentIQR    float64 // relative to ParentMedian
	Wins         int     // pairs the change won; ties count for neither
	Verdict      string
}

// failing reports whether a verdict fails the gate.
func (r row) failing() bool {
	return r.Verdict == verdictRegression || r.Verdict == verdictSimChanged || r.Verdict == verdictMissingValue
}

type pair struct{ parent, change record }

// sameHost refuses runs measured on different hosts: timings from
// another CPU model, CPU count, GOMAXPROCS or Go version do not compare.
func sameHost(recs []record) error {
	key := func(h host) string {
		return fmt.Sprintf("cpu %q, nproc %d, GOMAXPROCS %d, %s", h.CPUModel, h.NProc, h.GOMAXPROCS, h.GoVersion)
	}
	first := key(recs[0].Host)
	for _, r := range recs[1:] {
		if k := key(r.Host); k != first {
			return fmt.Errorf("refusing to compare runs from different hosts: %s vs %s", first, k)
		}
	}
	return nil
}

// pairRuns pairs the parent's and the change's runs of one workload by
// seed, in start order among runs sharing a seed.
func pairRuns(parent, change []record) []pair {
	bySeed := map[int64][]record{}
	for _, c := range change {
		bySeed[c.Seed] = append(bySeed[c.Seed], c)
	}
	for _, rs := range bySeed {
		sort.Slice(rs, func(i, j int) bool { return rs[i].Started.Before(rs[j].Started) })
	}
	sort.Slice(parent, func(i, j int) bool { return parent[i].Started.Before(parent[j].Started) })
	var out []pair
	for _, p := range parent {
		if cs := bySeed[p.Seed]; len(cs) > 0 {
			out = append(out, pair{p, cs[0]})
			bySeed[p.Seed] = cs[1:]
		}
	}
	return out
}

// compareRuns compares every workload that has runs on both sides:
// untraced runs on each end-to-end metric against its bound, traced
// runs on each simulated ("sim.") per-layer metric, which must not
// change at all.
func compareRuns(spec benchSpec, parent, change []record) ([]row, error) {
	if len(parent) == 0 || len(change) == 0 {
		return nil, errors.New("both sides need runs")
	}
	if err := sameHost(append(append([]record(nil), parent...), change...)); err != nil {
		return nil, err
	}
	type group struct {
		workload string
		traced   bool
	}
	split := func(recs []record) map[group][]record {
		m := map[group][]record{}
		for _, r := range recs {
			g := group{r.Workload, r.Trace}
			m[g] = append(m[g], r)
		}
		return m
	}
	ps, cs := split(parent), split(change)
	var groups []group
	for g := range ps {
		if len(cs[g]) > 0 {
			groups = append(groups, g)
		}
	}
	if len(groups) == 0 {
		return nil, errors.New("no workload has runs on both sides")
	}
	sort.Slice(groups, func(i, j int) bool {
		if groups[i].workload != groups[j].workload {
			return groups[i].workload < groups[j].workload
		}
		return !groups[i].traced
	})
	var rows []row
	for _, g := range groups {
		pairs := pairRuns(ps[g], cs[g])
		if len(pairs) < minPairs {
			return nil, fmt.Errorf("%s (trace %v): %d runs pair up by seed, need at least %d", g.workload, g.traced, len(pairs), minPairs)
		}
		parentFirst := 0
		for _, p := range pairs {
			if p.parent.Started.Before(p.change.Started) {
				parentFirst++
			}
		}
		if !g.traced {
			for _, m := range spec.EndToEnd {
				r := boundedRow(m.Name, m.Better == "lower", m.Bound, pairs)
				r.Workload, r.ParentFirst = g.workload, parentFirst
				rows = append(rows, r)
			}
			continue
		}
		for _, m := range spec.PerLayer {
			if strings.HasPrefix(m.Name, "sim.") {
				r := exactRow(m.Name, pairs)
				r.Workload, r.ParentFirst = g.workload+" (trace)", parentFirst
				rows = append(rows, r)
			}
		}
	}
	return rows, nil
}

// values extracts one metric from each side of every pair; ok is false
// when some run lacks it.
func values(name string, pairs []pair) (p, c []float64, ok bool) {
	for _, pr := range pairs {
		pv, okP := pr.parent.Metrics[name]
		cv, okC := pr.change.Metrics[name]
		if !okP || !okC {
			return nil, nil, false
		}
		p, c = append(p, pv.Value), append(c, cv.Value)
	}
	return p, c, true
}

// boundedRow decides one host-time metric. A gain needs the change to
// win at least nine tenths of the pairs and the medians to differ by
// more than the parent's interquartile spread. Otherwise the change
// holds unless its median is worse than the parent's by more than the
// bound; when either side's spread is wider than the bound the metric
// is unresolved, unless every change run beats every parent run.
func boundedRow(name string, lowerBetter bool, bound float64, pairs []pair) row {
	r := row{Metric: name, Pairs: len(pairs)}
	p, c, ok := values(name, pairs)
	if !ok {
		r.Verdict = verdictMissingValue
		return r
	}
	better := func(a, b float64) bool { // a is better than b
		if lowerBetter {
			return a < b
		}
		return a > b
	}
	allBetter := true
	for i := range p {
		if better(c[i], p[i]) {
			r.Wins++
		}
		for j := range p {
			allBetter = allBetter && better(c[i], p[j])
		}
	}
	p1, pm, p3 := quartiles(p)
	c1, cm, c3 := quartiles(c)
	r.ParentMedian, r.ChangeMedian = pm, cm
	r.ParentIQR = (p3 - p1) / math.Abs(pm)
	spread := math.Max(r.ParentIQR, (c3-c1)/math.Abs(cm))
	worse := (cm - pm) / math.Abs(pm)
	if !lowerBetter {
		worse = -worse
	}
	switch {
	case r.Wins*10 >= 9*len(pairs) && worse < 0 && math.Abs(cm-pm) > p3-p1:
		r.Verdict = verdictGain
	case allBetter:
		r.Verdict = verdictHolds
	case !(spread <= bound): // also catches a zero median
		r.Verdict = verdictUnresolved
	case worse > bound:
		r.Verdict = verdictRegression
	default:
		r.Verdict = verdictHolds
	}
	return r
}

// exactRow decides one simulated metric: the model is deterministic, so
// each pair must agree exactly.
func exactRow(name string, pairs []pair) row {
	r := row{Metric: name, Pairs: len(pairs), Verdict: verdictIdentical}
	p, c, ok := values(name, pairs)
	if !ok {
		r.Verdict = verdictMissingValue
		return r
	}
	r.ParentMedian, r.ChangeMedian = median(p), median(c)
	for i := range p {
		if p[i] != c[i] {
			r.Verdict = verdictSimChanged
		}
	}
	return r
}

func printRows(w io.Writer, rows []row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median\tchange median\tchange\tparent IQR\twins\tparent first\tverdict")
	for _, r := range rows {
		delta := 100 * (r.ChangeMedian - r.ParentMedian) / math.Abs(r.ParentMedian)
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.2f%%\t%d/%d\t%d/%d\t%s\n",
			r.Workload, r.Metric, r.ParentMedian, r.ChangeMedian, delta, 100*r.ParentIQR,
			r.Wins, r.Pairs, r.ParentFirst, r.Pairs, r.Verdict)
	}
	tw.Flush()
}

// compareMain runs `valleybench compare` from the repository root: exit
// 0 when nothing regressed, 1 when some metric regressed or a simulated
// value changed, 2 when the runs cannot be compared.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: valleybench compare PARENT_RUNS CHANGE_RUNS")
		return 2
	}
	rows, err := func() ([]row, error) {
		spec, err := loadSpec("BENCHMARK.json")
		if err != nil {
			return nil, err
		}
		parent, err := loadRecords(args[0])
		if err != nil {
			return nil, err
		}
		change, err := loadRecords(args[1])
		if err != nil {
			return nil, err
		}
		return compareRuns(spec, parent, change)
	}()
	if err != nil {
		fmt.Fprintln(stderr, "valleybench compare:", err)
		return 2
	}
	printRows(stdout, rows)
	for _, r := range rows {
		if r.failing() {
			return 1
		}
	}
	return 0
}
