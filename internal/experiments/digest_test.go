package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateDigest = flag.Bool("update", false, "rewrite testdata/experiments_tiny.sha256 from current output")

// TestExperimentsDigest pins what cmd/experiments prints for every
// experiment at tiny scale, BIM seed 1: the SHA-256 of its text and of
// its JSON envelope, one line each, in Names order. A change to a
// renderer, a JSON field or a computed value moves the lines of the
// experiments it touches. A refactor must leave the file alone; run
// with -update only after an intentional output change.
func TestExperimentsDigest(t *testing.T) {
	var got strings.Builder
	for _, name := range Names() {
		text, js := cliOutput(t, name, tinyOpt(), tinyOutputs()[name])
		fmt.Fprintf(&got, "%x  %s.txt\n", sha256.Sum256(text), name)
		fmt.Fprintf(&got, "%x  %s.json\n", sha256.Sum256(js), name)
	}

	path := filepath.Join("testdata", "experiments_tiny.sha256")
	if *updateDigest {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("digest updated: %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading digest (run with -update to create it): %v", err)
	}
	wantLines := strings.Split(strings.TrimSpace(string(want)), "\n")
	gotLines := strings.Split(strings.TrimSpace(got.String()), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d digest lines, golden has %d (run with -update if the experiment list changed on purpose)", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("output drifted: got %q, golden %q (run with -update if the output changed on purpose)", gotLines[i], wantLines[i])
		}
	}
}

// cliOutput returns the bytes cmd/experiments prints with -format text
// and with -format json for one run of an experiment: the envelope is
// built as JSONPayload builds it.
func cliOutput(t *testing.T, name string, opt Options, out Output) (text, js []byte) {
	t.Helper()
	var b bytes.Buffer
	out.Render(&b)
	var j bytes.Buffer
	enc := json.NewEncoder(&j)
	enc.SetIndent("", "  ")
	if err := enc.Encode(envelope(name, opt, out)); err != nil {
		t.Fatal(err)
	}
	return b.Bytes(), j.Bytes()
}
