package main

import (
	"slices"
	"sort"
	"testing"
)

// TestSmoke runs one operation of every workload, untraced and traced,
// against an in-process service at tiny scale, and checks that each run
// is correct and prints exactly the metric names and units BENCHMARK.json
// declares, so the harness stays runnable and in sync with its spec.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload once")
	}
	spec, err := loadSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got := workloadNames(); !slices.Equal(got, names) {
		t.Fatalf("workloads %v, BENCHMARK.json declares %v", got, names)
	}
	endToEndUnits := map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEndUnits[m.Name] = m.Unit
	}
	perLayerUnits := map[string]string{}
	for _, m := range spec.PerLayer {
		perLayerUnits[m.Name] = m.Unit
	}
	for _, w := range names {
		for _, traced := range []bool{false, true} {
			name := w
			want := endToEndUnits
			if traced {
				name += "/trace"
				want = perLayerUnits
			}
			t.Run(name, func(t *testing.T) {
				res, err := execute(config{
					root:     "../..",
					workload: w,
					seed:     1,
					traced:   traced,
					tiny:     true,
					setups:   1,
					runsDir:  t.TempDir(),
					progs:    inProcessPrograms(),
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				for n, unit := range want {
					if m, ok := res.Metrics[n]; !ok || m.Unit != unit {
						t.Errorf("metric %s: got %+v (present %v), BENCHMARK.json unit %q", n, m, ok, unit)
					}
				}
				for n := range res.Metrics {
					if _, ok := want[n]; !ok {
						t.Errorf("metric %s is not declared in BENCHMARK.json", n)
					}
				}
			})
		}
	}
}
