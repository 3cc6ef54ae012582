package main

import (
	"math/rand"
	"strings"
	"testing"
	"time"
)

// testSpec mirrors the shape of BENCHMARK.json with one host-time metric
// of each direction and one simulated metric.
func testSpec() benchSpec {
	return benchSpec{
		EndToEnd: []specMetric{
			{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.1},
			{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.1},
		},
		PerLayer: []specMetric{{Name: "sim.transactions", Unit: "count", Better: "lower"}},
	}
}

var testHost = host{CPUModel: "test cpu", NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.22"}

// syntheticRuns makes n untraced suite runs, seeds 1..n, started at
// alternating instants so parent and change interleave; opMS gives run
// i's op_ms_p50, and ops_per_s is its reciprocal in seconds.
func syntheticRuns(n int, offset time.Duration, opMS func(i int) float64) []record {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	out := make([]record, n)
	for i := range out {
		v := opMS(i)
		out[i] = record{
			Host:     testHost,
			Workload: "suite",
			Seed:     int64(i + 1),
			Started:  t0.Add(time.Duration(i)*time.Minute + offset),
			Metrics: map[string]metric{
				"op_ms_p50": {Value: v, Unit: "ms"},
				"ops_per_s": {Value: 1000 / v, Unit: "1/s"},
			},
		}
	}
	return out
}

// jitter returns run i's value around base with a seeded relative noise
// of at most ±amp.
func jitter(seed int64, base, amp float64) func(int) float64 {
	rng := rand.New(rand.NewSource(seed))
	noise := make([]float64, 64)
	for i := range noise {
		noise[i] = (2*rng.Float64() - 1) * amp
	}
	return func(i int) float64 { return base * (1 + noise[i]) }
}

func verdicts(t *testing.T, parent, change []record) map[string]string {
	t.Helper()
	rows, err := compareRuns(testSpec(), parent, change)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows compared")
	}
	out := map[string]string{}
	for _, r := range rows {
		out[r.Workload+" "+r.Metric] = r.Verdict
	}
	return out
}

func TestCompareVerdicts(t *testing.T) {
	parentMS := jitter(1, 3000, 0.01)
	for _, tc := range []struct {
		name     string
		changeMS func(int) float64
		want     string // verdict of both suite metrics
	}{
		{"identical sets show no change", parentMS, verdictHolds},
		{"a 20% slowdown is a regression", func(i int) float64 { return 1.2 * parentMS(i) }, verdictRegression},
		{"a 5% slowdown within the bound holds", func(i int) float64 { return 1.05 * parentMS(i) }, verdictHolds},
		{"a consistent 20% speed-up is a gain", func(i int) float64 { return parentMS(i) / 1.2 }, verdictGain},
		{"a noisy change is unresolved", jitter(2, 3300, 0.5), verdictUnresolved},
	} {
		t.Run(tc.name, func(t *testing.T) {
			parent := syntheticRuns(10, 0, parentMS)
			change := syntheticRuns(10, 30*time.Second, tc.changeMS)
			for metric, got := range verdicts(t, parent, change) {
				if got != tc.want {
					t.Errorf("%s: verdict %s, want %s", metric, got, tc.want)
				}
			}
		})
	}
}

func TestCompareSimulatedValuesMustMatch(t *testing.T) {
	traced := func(tx float64) []record {
		recs := syntheticRuns(10, 0, jitter(1, 3000, 0.01))
		for i := range recs {
			recs[i].Trace = true
			recs[i].Metrics = map[string]metric{"sim.transactions": {Value: tx, Unit: "count"}}
		}
		return recs
	}
	if got := verdicts(t, traced(2578824), traced(2578824))["suite (trace) sim.transactions"]; got != verdictIdentical {
		t.Errorf("equal simulated values: verdict %s, want %s", got, verdictIdentical)
	}
	if got := verdicts(t, traced(2578824), traced(2578825))["suite (trace) sim.transactions"]; got != verdictSimChanged {
		t.Errorf("changed simulated value: verdict %s, want %s", got, verdictSimChanged)
	}
}

func TestCompareRefuses(t *testing.T) {
	same := jitter(1, 3000, 0.01)
	otherHost := syntheticRuns(10, 0, same)
	for i := range otherHost {
		otherHost[i].Host.GOMAXPROCS = 4
	}
	for _, tc := range []struct {
		name           string
		parent, change []record
		want           string
	}{
		{"runs from another host", syntheticRuns(10, 0, same), otherHost, "different hosts"},
		{"fewer than ten pairs", syntheticRuns(9, 0, same), syntheticRuns(9, 0, same), "need at least 10"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := compareRuns(testSpec(), tc.parent, tc.change)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %v, want one mentioning %q", err, tc.want)
			}
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
