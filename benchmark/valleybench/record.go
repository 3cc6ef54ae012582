package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// host identifies the machine and toolchain a run was measured with.
// Timings are comparable only between runs whose hosts match (see
// sameHost); the commit and dirty flag say what was measured.
type host struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
}

func hostInfo(root string) host {
	h := host{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown", // not a git checkout
	}
	if out, err := exec.Command("git", "-C", root, "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
		status, err := exec.Command("git", "-C", root, "status", "--porcelain").Output()
		h.Dirty = err == nil && len(bytes.TrimSpace(status)) > 0
	}
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// makeRunDir creates <runs>/<UTC-timestamp>-<commit>/.
func makeRunDir(runs string, started time.Time, commit string) (string, error) {
	if err := os.MkdirAll(runs, 0o755); err != nil {
		return "", err
	}
	base := filepath.Join(runs, started.UTC().Format("20060102T150405.000Z")+"-"+commit)
	for i := 0; ; i++ {
		dir := base
		if i > 0 {
			dir = fmt.Sprintf("%s-%d", base, i)
		}
		err := os.Mkdir(dir, 0o755)
		if err == nil {
			return dir, nil
		}
		if !errors.Is(err, fs.ErrExist) {
			return "", err
		}
	}
}

// summary describes one sample series of a run.
type summary struct {
	N      int       `json:"n"`
	Q1     float64   `json:"q1"`
	Median float64   `json:"median"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

// record is a run's results.json.
type record struct {
	Host      host               `json:"host"`
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Seconds   float64            `json:"seconds"`
	Tiny      bool               `json:"tiny,omitempty"`
	Started   time.Time          `json:"started"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Metrics   map[string]metric  `json:"metrics"`
	Samples   map[string]summary `json:"samples"`
}

// writeRecord writes results.json (and, for a traced run, spans.json)
// into the run directory and drops the daemons' spill directories.
func writeRecord(r *run, h host, started time.Time, res result) error {
	rec := record{
		Host:      h,
		Workload:  r.workload,
		Seed:      r.seed,
		Trace:     r.traced,
		Seconds:   r.window.Seconds(),
		Tiny:      r.tiny,
		Started:   started.UTC(),
		Correct:   res.Correct,
		Attempted: res.Attempted,
		Failed:    res.Failed,
		Errors:    r.errs,
		Metrics:   res.Metrics,
		Samples:   map[string]summary{},
	}
	for name, xs := range r.samples {
		q1, q2, q3 := quartiles(xs)
		rec.Samples[name] = summary{N: len(xs), Q1: q1, Median: q2, Q3: q3, Values: xs}
	}
	if err := writeJSON(filepath.Join(r.dir, "results.json"), rec); err != nil {
		return err
	}
	if r.traced {
		if err := writeJSON(filepath.Join(r.dir, "spans.json"), r.spans.spans); err != nil {
			return err
		}
	}
	spills, err := filepath.Glob(filepath.Join(r.dir, "spill-*"))
	if err != nil {
		return err
	}
	for _, s := range spills {
		if err := os.RemoveAll(s); err != nil {
			return err
		}
	}
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
