package workload

import (
	"reflect"
	"testing"

	"valleymap/internal/entropy"
	"valleymap/internal/trace"
)

// TestSourceMatchesBuild: draining a Source must reproduce Build's trace
// exactly, and repeated passes must be deterministic (the emitters —
// including the seeded RNG gathers — regenerate identical requests).
func TestSourceMatchesBuild(t *testing.T) {
	for _, spec := range All() {
		built := spec.Build(Tiny)
		src := spec.Source(Tiny)
		info := src.Info()
		if info.Name != built.Name || info.Abbr != built.Abbr ||
			info.Valley != built.Valley || info.InsnPerAccess != built.InsnPerAccess {
			t.Errorf("%s: source info %+v does not match app metadata", spec.Abbr, info)
		}
		pass1, err := trace.Collect(src)
		if err != nil {
			t.Fatalf("%s: collect: %v", spec.Abbr, err)
		}
		if !reflect.DeepEqual(built, pass1) {
			t.Errorf("%s: collected stream differs from Build", spec.Abbr)
		}
		pass2, err := trace.Collect(src)
		if err != nil {
			t.Fatalf("%s: second collect: %v", spec.Abbr, err)
		}
		if !reflect.DeepEqual(pass1, pass2) {
			t.Errorf("%s: source is not deterministic across passes", spec.Abbr)
		}
	}
}

// TestStreamedProfileMatchesMaterialized is the end-to-end golden test
// of the streaming pipeline at the generator level: profiling straight
// from the Source (generate → coalesce → profile, never materializing
// an App) must be bit-identical to the materialized path for every
// built-in workload.
func TestStreamedProfileMatchesMaterialized(t *testing.T) {
	const window, bits, lineBytes = 12, 30, 128
	for _, spec := range All() {
		want := entropy.AppProfile(trace.CoalesceApp(spec.Build(Tiny), lineBytes), window, bits, nil)
		got, err := entropy.ProfileStream(
			trace.CoalesceStream(spec.Source(Tiny).Stream(), lineBytes),
			entropy.StreamOptions{Window: window, Bits: bits},
		)
		if err != nil {
			t.Fatalf("%s: %v", spec.Abbr, err)
		}
		if want.Requests != got.Requests {
			t.Fatalf("%s: requests %d != %d", spec.Abbr, got.Requests, want.Requests)
		}
		for b := range want.PerBit {
			if want.PerBit[b] != got.PerBit[b] {
				t.Fatalf("%s bit %d: %.17g != %.17g",
					spec.Abbr, b, got.PerBit[b], want.PerBit[b])
			}
		}
	}
}
