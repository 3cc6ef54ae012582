package gpu

import (
	"testing"

	"valleymap/internal/sim"
	"valleymap/internal/trace"
)

// poolFabric returns every read after a fixed delay through pooled fill
// records and the engine's handler API, so it adds no allocation of its
// own to the SM's. (fakeFabric allocates a closure per read.)
type poolFabric struct {
	eng   *sim.Engine
	delay sim.Time
	free  []*fill
	reads int
}

type fill struct {
	f    *poolFabric
	line uint64
	sink ReadSink
}

func fillH(arg any) {
	r := arg.(*fill)
	f, line, sink := r.f, r.line, r.sink
	r.sink = nil
	f.free = append(f.free, r)
	sink.FillLine(line, f.eng.Now())
}

func (f *poolFabric) IssueRead(now sim.Time, sm int, addr uint64, sink ReadSink) {
	f.reads++
	var r *fill
	if n := len(f.free); n > 0 {
		r = f.free[n-1]
		f.free = f.free[:n-1]
	} else {
		r = &fill{f: f}
	}
	r.line, r.sink = addr, sink
	f.eng.AtCall(now+f.delay, fillH, r)
}

func (f *poolFabric) IssueWrite(sim.Time, int, uint64) {}

// mixedTB is one TB whose reads take every path through the SM's L1 and
// MSHR file, on every launch:
//   - warp 0 reads 32 lines that all fall in L1 set 0, so they miss
//     (4 ways) and fill the 32-entry MSHR file;
//   - warp 1 reads the same 32 lines while they are pending: merges;
//   - warp 2 reads 32 lines of set 1 while the file is full: the four
//     left resident by the previous launch hit, the rest stall and then
//     miss as entries free;
//   - warp 3 reads one line of set 2 twice, split by a store: it hits
//     from the second launch on (and on its second read always).
func mixedTB() *trace.TB {
	const setStride = 32 * 128 // L1: 32 sets of 128 B lines
	tb := &trace.TB{}
	for w, base := range []uint64{0, 0, 128} {
		for t := uint64(0); t < 32; t++ {
			tb.Requests = append(tb.Requests, trace.Request{Addr: base + t*setStride, Warp: int32(w)})
		}
	}
	tb.Requests = append(tb.Requests,
		trace.Request{Addr: 256, Warp: 3},
		trace.Request{Addr: 1 << 20, Warp: 3, Kind: trace.Write},
		trace.Request{Addr: 260, Warp: 3})
	return tb
}

// newSMBench builds one SM over a poolFabric with mixedTB's programs and
// a function that launches the TB and runs it to completion.
func newSMBench() (*SM, *poolFabric, func()) {
	eng := &sim.Engine{}
	fab := &poolFabric{eng: eng, delay: 500 * sim.Nanosecond}
	sm := New(eng, 0, DefaultConfig(), fab)
	progs := BuildPrograms(mixedTB(), 4, 128, nil)
	return sm, fab, func() {
		sm.LaunchTB(progs, 10, nil)
		eng.Run()
	}
}

// BenchmarkSMReads is the SM's isolated benchmark: one op launches
// mixedTB on a warmed-up SM and runs it until every read has returned,
// so it times the issue loop, the L1 and the MSHR file without the NoC,
// LLC or DRAM.
func BenchmarkSMReads(b *testing.B) {
	sm, fab, launch := newSMBench()
	launch()
	reads := fab.reads
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		launch()
	}
	b.StopTimer()
	b.ReportMetric(float64(fab.reads-reads)/float64(b.N), "fabric-reads/op")
	if st := sm.Stats(); !coversEveryPath(st) {
		b.Fatalf("mixedTB did not exercise every path: %+v", st)
	}
}

// coversEveryPath reports whether an SM's counters show reads that hit,
// missed, merged (a read that never reached the tag array) and stalled.
func coversEveryPath(st Stats) bool {
	return st.L1.Hits > 0 && st.L1.Misses > 0 && st.ReadTx > st.L1.Accesses && st.MSHRStallTime > 0
}

// TestSMRelaunchZeroAlloc pins the SM's pooling: once one launch of
// mixedTB has grown the record pools, the MSHRs' waiter slices and the
// stall ring, relaunching it allocates nothing, although it misses,
// merges, stalls and hits.
func TestSMRelaunchZeroAlloc(t *testing.T) {
	sm, _, launch := newSMBench()
	launch()
	if avg := testing.AllocsPerRun(20, launch); avg != 0 {
		t.Errorf("relaunching a warmed-up TB allocates %v per launch, want 0", avg)
	}
	if st := sm.Stats(); st.TBsCompleted != 22 || !coversEveryPath(st) {
		t.Errorf("mixedTB did not exercise every path: %+v", st)
	}
	// Every entry is free again and keeps its waiter slice's capacity,
	// but no pointer to a retired warp.
	if sm.mshrUsed != 0 {
		t.Errorf("%d MSHRs still occupied after the TB drained", sm.mshrUsed)
	}
	for i, e := range sm.mshrs {
		for _, ws := range e.waiters[:cap(e.waiters)] {
			if ws != nil {
				t.Fatalf("free MSHR %d still points at a warp", i)
			}
		}
	}
}

// TestBuildProgramsIntoZeroAlloc pins the simulator's per-launch
// program construction: with its program slice and Coalescer warm,
// rebuilding a TB's programs (coalescing through the shared dedup set,
// mapping every transaction and splitting by warp) allocates nothing.
func TestBuildProgramsIntoZeroAlloc(t *testing.T) {
	tb := mixedTB()
	flip := func(a uint64) uint64 { return a ^ 1<<12 }
	var co trace.Coalescer
	progs := BuildProgramsInto(nil, &co, tb, 4, 128, flip)
	if avg := testing.AllocsPerRun(20, func() {
		progs = BuildProgramsInto(progs, &co, tb, 4, 128, flip)
	}); avg != 0 {
		t.Errorf("rebuilding a warm TB's programs allocates %v per launch, want 0", avg)
	}
	if n := len(progs[0].Instr(0)); n != 32 {
		t.Errorf("warp 0 issues %d transactions, want 32", n)
	}
}
