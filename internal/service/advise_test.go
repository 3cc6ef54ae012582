package service

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"valleymap/internal/trace"
	"valleymap/internal/workload"
)

// writeTraceFiles renders one workload's tiny trace as t.csv and t.vtrc
// in a fresh trace directory and returns the directory and the CSV text.
func writeTraceFiles(t *testing.T, abbr string) (dir, csv string) {
	t.Helper()
	spec, ok := workload.ByAbbr(abbr)
	if !ok {
		t.Fatalf("no workload %s", abbr)
	}
	app := spec.Build(workload.Tiny)
	var c, b bytes.Buffer
	if err := trace.WriteCSV(&c, app); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteBinary(&b, app); err != nil {
		t.Fatal(err)
	}
	dir = t.TempDir()
	for name, body := range map[string][]byte{"t.csv": c.Bytes(), "t.vtrc": b.Bytes()} {
		if err := os.WriteFile(filepath.Join(dir, name), body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir, c.String()
}

// decodeCounts runs one Profile or one default Advise of req on a fresh
// service and reports its decode-stage observations by format label.
func decodeCounts(t *testing.T, dir string, req ProfileRequest, advise bool) map[string]int64 {
	t.Helper()
	s := New(Config{Workers: 1, TraceDir: dir})
	defer s.Close()
	var err error
	if advise {
		_, err = s.Advise(AdviseRequest{ProfileRequest: req})
	} else {
		_, _, err = s.Profile(req)
	}
	if err != nil {
		t.Fatal(err)
	}
	m := s.metrics
	return map[string]int64{
		"csv":    m.stageCSV.decode.Count(),
		"binary": m.stageBinary.decode.Count(),
		"native": m.stageNative.decode.Count(),
	}
}

// TestAdviseReadsTraceFileOnce: the base profile and every candidate of
// one Advise share one read of a trace_file, so Advise decodes the file
// no more often than one Profile of it does.
func TestAdviseReadsTraceFileOnce(t *testing.T) {
	dir, _ := writeTraceFiles(t, "SP")
	for file, format := range map[string]string{"t.csv": "csv", "t.vtrc": "binary"} {
		t.Run(file, func(t *testing.T) {
			req := ProfileRequest{TraceFile: file}
			profiled := decodeCounts(t, dir, req, false)[format]
			advised := decodeCounts(t, dir, req, true)[format]
			if profiled == 0 {
				t.Fatalf("Profile recorded no %s decode observations", format)
			}
			if advised > profiled {
				t.Errorf("Advise recorded %d %s decode observations, one Profile %d: the file is read more than once",
					advised, format, profiled)
			}
		})
	}
}

// TestProfileStageFormatLabels pins the stage-label rule over both entry
// points: the one pass that decodes a container is observed under the
// container's label, and every pass over an in-memory copy (or a
// generated workload) is native.
func TestProfileStageFormatLabels(t *testing.T) {
	dir, csv := writeTraceFiles(t, "SP")
	cases := []struct {
		name   string
		req    ProfileRequest
		format string // the container's label; "" for a generated workload
	}{
		{"workload", ProfileRequest{Workload: "SP", Scale: "tiny"}, ""},
		{"trace_csv", ProfileRequest{TraceCSV: csv}, "csv"},
		{"csv trace_file", ProfileRequest{TraceFile: "t.csv"}, "csv"},
		{"vtrc trace_file", ProfileRequest{TraceFile: "t.vtrc"}, "binary"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			profiled := decodeCounts(t, dir, tc.req, false)
			advised := decodeCounts(t, dir, tc.req, true)
			for _, f := range []string{"csv", "binary"} {
				if f == tc.format {
					continue
				}
				if profiled[f] != 0 || advised[f] != 0 {
					t.Errorf("%s decode observed for a %q input: Profile %d, Advise %d", f, tc.format, profiled[f], advised[f])
				}
			}
			if tc.format == "" {
				if profiled["native"] == 0 || advised["native"] == 0 {
					t.Errorf("workload passes are not native: Profile %v, Advise %v", profiled, advised)
				}
				return
			}
			if profiled[tc.format] == 0 || profiled["native"] != 0 {
				t.Errorf("Profile's one pass is not observed as %s: %v", tc.format, profiled)
			}
			if advised[tc.format] != profiled[tc.format] {
				t.Errorf("Advise observed %d %s decodes, Profile %d: want the one container pass",
					advised[tc.format], tc.format, profiled[tc.format])
			}
			if advised["native"] == 0 {
				t.Errorf("Advise's passes over the in-memory copy are not native: %v", advised)
			}
		})
	}
}

// TestAdviseInputParity: Advise recommends from the trace, not from how
// it arrived. MT tiny as a workload, as trace_csv, as a CSV trace_file
// and as a VTRC trace_file yields identical candidates.
func TestAdviseInputParity(t *testing.T) {
	dir, csv := writeTraceFiles(t, "MT")
	var want *AdviseResult
	for _, req := range []ProfileRequest{
		{Workload: "MT", Scale: "tiny"},
		{TraceCSV: csv},
		{TraceFile: "t.csv"},
		{TraceFile: "t.vtrc"},
	} {
		s := New(Config{Workers: 1, TraceDir: dir})
		got, err := s.Advise(AdviseRequest{ProfileRequest: req})
		s.Close()
		if err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(got.Candidates, want.Candidates) {
			t.Errorf("%+v: candidates differ from the workload's:\n got %+v\nwant %+v", req, got.Candidates, want.Candidates)
		}
		if !reflect.DeepEqual(got.Recommended, want.Recommended) {
			t.Errorf("%+v: recommended %s/%d, workload %s/%d", req,
				got.Recommended.Scheme, got.Recommended.Seed, want.Recommended.Scheme, want.Recommended.Seed)
		}
	}
}
