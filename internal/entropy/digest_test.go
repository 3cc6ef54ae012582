package entropy

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"valleymap/internal/layout"
	"valleymap/internal/mapping"
	"valleymap/internal/workload"
)

var updateDigest = flag.Bool("update", false, "rewrite testdata/profiles_tiny.sha256 from current output")

// TestProfileDigest pins profile values, not only the agreement of the
// two profilers: every built-in workload at tiny scale, unmapped and
// under PAE (BIM seed 1), at windows 1, 12 and 100000, profiled by the
// streaming and the materialized pipeline. The float64 bits of every
// PerBit value and each request count are hashed in that order. A
// change that moves both profilers alike keeps them identical to each
// other but moves this digest. A speed-up must leave it alone; run with
// -update only after an intentional change to the metric.
func TestProfileDigest(t *testing.T) {
	const lineBytes, bits = 128, 30
	l := layout.HynixGDDR5()
	pae := mapping.MustNew(mapping.PAE, l, mapping.Options{Seed: 1})
	h := sha256.New()
	var word [8]byte
	put := func(p Profile) {
		binary.LittleEndian.PutUint64(word[:], uint64(p.Requests))
		h.Write(word[:])
		for _, v := range p.PerBit {
			binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
			h.Write(word[:])
		}
	}
	profiles := 0
	for _, spec := range workload.All() {
		app := spec.Build(workload.Tiny)
		for _, m := range []*mapping.Mapper{nil, &pae} {
			var f Transform
			var bf func([]uint64)
			if m != nil {
				f, bf = m.Map, m.MapBatch
			}
			for _, window := range []int{1, 12, 100000} {
				want := materializedProfile(app, lineBytes, window, bits, f)
				got := streamedProfile(t, app, lineBytes, window, bits, bf)
				requireIdentical(t, spec.Abbr, want, got)
				put(got)
				put(want)
				profiles++
			}
		}
	}
	got := hex.EncodeToString(h.Sum(nil))

	path := filepath.Join("testdata", "profiles_tiny.sha256")
	if *updateDigest {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("digest updated: %s (%d profiles)", path, profiles)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading digest (run with -update to create it): %v", err)
	}
	if w := strings.TrimSpace(string(want)); got != w {
		t.Fatalf("profiles drifted: %d profiles hash to %s, golden %s (run with -update if the metric changed on purpose)", profiles, got, w)
	}
}
