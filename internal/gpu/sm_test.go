package gpu

import (
	"fmt"
	"strings"
	"testing"

	"valleymap/internal/sim"
	"valleymap/internal/trace"
)

// fakeFabric services reads after a fixed delay and records traffic.
type fakeFabric struct {
	eng    *sim.Engine
	delay  sim.Time
	reads  []uint64
	readAt []sim.Time // issue time of each read
	// readsAtFirstFill is len(reads) when the first fill returned.
	readsAtFirstFill int
	writes           []uint64
}

func (f *fakeFabric) IssueRead(now sim.Time, sm int, addr uint64, sink ReadSink) {
	f.reads = append(f.reads, addr)
	f.readAt = append(f.readAt, now)
	f.eng.At(now+f.delay, func() {
		if f.readsAtFirstFill == 0 {
			f.readsAtFirstFill = len(f.reads)
		}
		sink.FillLine(addr, f.eng.Now())
	})
}

func (f *fakeFabric) IssueWrite(now sim.Time, sm int, addr uint64) {
	f.writes = append(f.writes, addr)
}

func newSM(delay sim.Time) (*sim.Engine, *fakeFabric, *SM) {
	eng := &sim.Engine{}
	fab := &fakeFabric{eng: eng, delay: delay}
	sm := New(eng, 0, DefaultConfig(), fab)
	return eng, fab, sm
}

func contiguousTB(threads int) *trace.TB {
	tb := &trace.TB{ID: 0}
	for t := 0; t < threads; t++ {
		tb.Requests = append(tb.Requests, trace.Request{Addr: uint64(t) * 4, Warp: int32(t / 32)})
	}
	return tb
}

func stridedTB(threads int, stride uint64, kind trace.Kind) *trace.TB {
	tb := &trace.TB{ID: 0}
	for t := 0; t < threads; t++ {
		tb.Requests = append(tb.Requests, trace.Request{Addr: uint64(t) * stride, Kind: kind, Warp: int32(t / 32)})
	}
	return tb
}

func TestBuildProgramsCoalesced(t *testing.T) {
	progs := BuildPrograms(contiguousTB(64), 2, 128, nil)
	if len(progs) != 2 {
		t.Fatalf("programs = %d", len(progs))
	}
	for w := range progs {
		p := &progs[w]
		if p.NumInstrs() != 1 {
			t.Fatalf("warp %d instrs = %d, want 1", w, p.NumInstrs())
		}
		if len(p.Instr(0)) != 1 {
			t.Errorf("warp %d transactions = %d, want 1 (coalesced)", w, len(p.Instr(0)))
		}
	}
}

func TestBuildProgramsDiverged(t *testing.T) {
	progs := BuildPrograms(stridedTB(32, 4096, trace.Read), 1, 128, nil)
	if progs[0].NumInstrs() != 1 || len(progs[0].Instr(0)) != 32 {
		t.Fatalf("diverged instr shape = %v", len(progs[0].Instr(0)))
	}
}

func TestBuildProgramsAppliesMapping(t *testing.T) {
	flip := func(a uint64) uint64 { return a ^ (1 << 20) }
	progs := BuildPrograms(contiguousTB(32), 1, 128, flip)
	if got := progs[0].Instr(0)[0].Addr; got != 1<<20 {
		t.Errorf("mapped addr = %#x, want %#x", got, 1<<20)
	}
}

func TestBuildProgramsKindsAndOrder(t *testing.T) {
	tb := &trace.TB{ID: 0}
	tb.Requests = append(tb.Requests, trace.Request{Addr: 0, Kind: trace.Read, Warp: 0})
	tb.Requests = append(tb.Requests, trace.Request{Addr: 4096, Kind: trace.Write, Warp: 0})
	progs := BuildPrograms(tb, 1, 128, nil)
	if progs[0].NumInstrs() != 2 {
		t.Fatalf("instrs = %d, want 2 (kind change splits instructions)", progs[0].NumInstrs())
	}
	if progs[0].Instr(0)[0].Write || !progs[0].Instr(1)[0].Write {
		t.Error("kinds wrong")
	}
}

func TestTBCompletionAfterReadsReturn(t *testing.T) {
	eng, fab, sm := newSM(1000 * sim.Nanosecond)
	progs := BuildPrograms(stridedTB(32, 4096, trace.Read), 1, 128, nil)
	var doneAt sim.Time
	sm.LaunchTB(progs, 10, func(now sim.Time) { doneAt = now })
	eng.Run()
	if doneAt < 1000*sim.Nanosecond {
		t.Errorf("TB completed at %v, before fabric delay", doneAt)
	}
	if len(fab.reads) != 32 {
		t.Errorf("fabric reads = %d, want 32", len(fab.reads))
	}
	if sm.ActiveTBs() != 0 {
		t.Error("TB still counted active")
	}
	if sm.Stats().TBsCompleted != 1 {
		t.Error("completion not counted")
	}
}

func TestL1MergesDuplicateLines(t *testing.T) {
	eng, fab, sm := newSM(1000 * sim.Nanosecond)
	// Two warps read the same line: one fabric read, both complete.
	tb := &trace.TB{ID: 0}
	for w := int32(0); w < 2; w++ {
		for t := 0; t < 32; t++ {
			tb.Requests = append(tb.Requests, trace.Request{Addr: uint64(t * 4), Warp: w})
		}
	}
	progs := BuildPrograms(tb, 2, 128, nil)
	completed := 0
	sm.LaunchTB(progs, 10, func(sim.Time) { completed++ })
	eng.Run()
	if len(fab.reads) != 1 {
		t.Errorf("fabric reads = %d, want 1 (MSHR merge)", len(fab.reads))
	}
	if completed != 1 {
		t.Errorf("completed = %d", completed)
	}
}

func TestL1HitsAvoidFabric(t *testing.T) {
	eng, fab, sm := newSM(100 * sim.Nanosecond)
	// Same warp reads the same line in two consecutive instructions.
	tb := &trace.TB{ID: 0}
	tb.Requests = append(tb.Requests, trace.Request{Addr: 0, Warp: 0})
	tb.Requests = append(tb.Requests, trace.Request{Addr: 64, Warp: 0, Kind: trace.Write}) // splits instr
	tb.Requests = append(tb.Requests, trace.Request{Addr: 4, Warp: 0})
	progs := BuildPrograms(tb, 1, 128, nil)
	sm.LaunchTB(progs, 1, nil)
	eng.Run()
	if len(fab.reads) != 1 {
		t.Errorf("fabric reads = %d, want 1 (second read hits L1)", len(fab.reads))
	}
	st := sm.Stats()
	if st.L1.Hits != 1 || st.L1.Misses != 1 {
		t.Errorf("L1 stats = %+v", st.L1)
	}
}

func TestWritesDoNotBlockWarp(t *testing.T) {
	// Enormous fabric delay; writes only — the TB must finish almost
	// immediately (bounded by LSU issue + gaps, not by the fabric).
	eng, fab, sm := newSM(sim.Second)
	progs := BuildPrograms(stridedTB(32, 4096, trace.Write), 1, 128, nil)
	var doneAt sim.Time
	sm.LaunchTB(progs, 10, func(now sim.Time) { doneAt = now })
	drained := eng.RunUntil(sim.Millisecond)
	_ = drained
	if doneAt == 0 || doneAt > sim.Millisecond {
		t.Errorf("write-only TB done at %v, want < 1ms", doneAt)
	}
	if len(fab.writes) != 32 {
		t.Errorf("writes = %d", len(fab.writes))
	}
}

func TestMSHRLimitStalls(t *testing.T) {
	// TB A: warp 0 reads 32 distinct lines, filling the 32-entry MSHR
	// file; warp 1 then misses on 16 more, which stall. TB B's one read
	// reaches the SM after warp 0's (same stagger, later launch) and
	// before warp 1's, to a line warp 0 has pending. All must complete.
	const gap = 10
	eng, fab, sm := newSM(10 * sim.Microsecond)
	mshrs := DefaultConfig().MSHRs
	cc := DefaultConfig().CoreClock
	tb := &trace.TB{ID: 0}
	for t := 0; t < 32; t++ {
		tb.Requests = append(tb.Requests, trace.Request{Addr: uint64(t) * 4096, Warp: 0})
	}
	for t := 0; t < 16; t++ {
		tb.Requests = append(tb.Requests, trace.Request{Addr: uint64(t+40) * 4096, Warp: 1})
	}
	progs := BuildPrograms(tb, 2, 128, nil)
	completed := 0
	sm.LaunchTB(progs, gap, func(sim.Time) { completed++ })
	merged := BuildPrograms(&trace.TB{Requests: []trace.Request{{Addr: 4}}}, 1, 128, nil)
	var mergedDone sim.Time
	sm.LaunchTB(merged, gap, func(now sim.Time) { mergedDone = now })
	eng.Run()
	if completed != 1 || mergedDone == 0 {
		t.Fatalf("TBs did not complete (completed=%d, merged TB done at %v)", completed, mergedDone)
	}
	if len(fab.reads) != 48 {
		t.Errorf("fabric reads = %d, want 48 (the merged read must not reach the fabric)", len(fab.reads))
	}
	if sm.Stats().MSHRStallTime == 0 {
		t.Error("expected MSHR stall time with 48 outstanding lines")
	}

	// Exactly MSHRs reads reach the fabric before the first fill.
	if fab.readsAtFirstFill != mshrs {
		t.Errorf("reads issued before the first fill = %d, want %d", fab.readsAtFirstFill, mshrs)
	}
	// The merge happened while the file was full, without stalling: TB
	// B's read completed with line 0's fill, the first one, and not an
	// L1 hit later.
	firstFill := fab.readAt[0] + fab.delay
	if fab.reads[0] != 0 || mergedDone != firstFill+cc.Cycles(gap) {
		t.Errorf("merged TB done at %v, want line 0's fill %v + %d-cycle gap", mergedDone, firstFill, gap)
	}
	// Each freed entry goes to the oldest stalled read, at the fill.
	for i := 0; i < 16; i++ {
		want := uint64(i+40) * 4096
		if got := fab.reads[mshrs+i]; got != want {
			t.Fatalf("read %d = %#x, want stalled line %#x (FIFO retry)", mshrs+i, got, want)
		}
		if at, fill := fab.readAt[mshrs+i], fab.readAt[i]+fab.delay; at != fill {
			t.Errorf("stalled line %#x issued at %v, want the freeing fill at %v", want, at, fill)
		}
	}
}

func TestNewRejectsZeroMSHRs(t *testing.T) {
	for _, n := range []int{0, -1} {
		cfg := DefaultConfig()
		cfg.MSHRs = n
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, fmt.Sprintf("MSHRs = %d", n)) {
					t.Errorf("New with MSHRs = %d panicked with %q, want the value named", n, msg)
				}
			}()
			New(&sim.Engine{}, 0, cfg, nil)
		}()
	}
}

func TestEmptyTBCompletes(t *testing.T) {
	eng, _, sm := newSM(0)
	done := false
	sm.LaunchTB(make([]WarpProgram, 4), 10, func(sim.Time) { done = true })
	eng.Run()
	if !done {
		t.Error("empty TB never completed")
	}
	if sm.ActiveTBs() != 0 {
		t.Error("occupancy leak")
	}
}

func TestOccupancyLimit(t *testing.T) {
	eng, _, sm := newSM(100 * sim.Nanosecond)
	if !sm.CanAccept() {
		t.Fatal("fresh SM refuses TBs")
	}
	for i := 0; i < DefaultConfig().MaxTBs; i++ {
		sm.LaunchTB(BuildPrograms(contiguousTB(32), 1, 128, nil), 10, nil)
	}
	if sm.CanAccept() {
		t.Error("SM over-subscribed")
	}
	eng.Run()
	if !sm.CanAccept() {
		t.Error("slots not released")
	}
}

func TestComputeGapPacesIssue(t *testing.T) {
	// Larger gaps must stretch execution.
	run := func(gap int) sim.Time {
		eng, _, sm := newSM(10 * sim.Nanosecond)
		tb := &trace.TB{ID: 0}
		for i := 0; i < 8; i++ {
			tb.Requests = append(tb.Requests, trace.Request{Addr: uint64(i) * 4096, Warp: 0, Kind: trace.Write})
			tb.Requests = append(tb.Requests, trace.Request{Addr: uint64(i) * 8192, Warp: 0, Kind: trace.Read})
		}
		progs := BuildPrograms(tb, 1, 128, nil)
		sm.LaunchTB(progs, gap, nil)
		return eng.Run()
	}
	if fast, slow := run(10), run(1000); slow <= fast {
		t.Errorf("gap=1000 (%v) should be slower than gap=10 (%v)", slow, fast)
	}
}
