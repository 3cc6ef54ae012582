// Package gpu models the Streaming Multiprocessors of Table I: per-SM
// warps paced by compute gaps, a greedy-then-oldest-flavored load/store
// unit, the memory coalescer, a 16 KB L1 data cache with 32 MSHRs, and
// TB-granular occupancy. SMs issue line-granular transactions into a
// Fabric (NoC → LLC → DRAM) supplied by the system model.
//
// The SM schedules exclusively through the engine's handler API with
// pooled warp and transaction records and tracks misses in a fixed MSHR
// table, so its steady-state event churn does not allocate (see
// internal/sim's package docs; TestSMRelaunchZeroAlloc pins it).
package gpu

import (
	"fmt"
	"slices"

	"valleymap/internal/cache"
	"valleymap/internal/sim"
	"valleymap/internal/trace"
)

// Transaction is one coalesced, mapped, line-aligned memory transaction.
type Transaction struct {
	Addr  uint64
	Write bool
}

// WarpProgram is the memory-side program of one warp: a sequence of
// memory instructions, each of which expands to one or more transactions
// (32 for fully diverged accesses, 1 for fully coalesced ones).
// Transactions are stored flat with instruction boundaries, so a
// program buffer recycled across TB launches reuses both backing
// arrays.
type WarpProgram struct {
	tx   []Transaction
	ends []int32 // cumulative transaction count at each instruction end
}

// NumInstrs returns the number of memory instructions in the program.
func (p *WarpProgram) NumInstrs() int { return len(p.ends) }

// Instr returns the transactions of instruction i.
func (p *WarpProgram) Instr(i int) []Transaction {
	start := int32(0)
	if i > 0 {
		start = p.ends[i-1]
	}
	return p.tx[start:p.ends[i]]
}

// Reset empties the program, keeping capacity for reuse.
func (p *WarpProgram) Reset() {
	p.tx = p.tx[:0]
	p.ends = p.ends[:0]
}

// BuildPrograms converts a (raw, per-thread) TB trace into per-warp
// programs: requests are coalesced into lineBytes transactions per
// warp-instruction and each transaction address is passed through
// mapAddr — the BIM address mapper sits directly after the coalescer
// (Section IV). mapAddr may be nil for the identity mapping.
func BuildPrograms(tb *trace.TB, warps, lineBytes int, mapAddr func(uint64) uint64) []WarpProgram {
	var co trace.Coalescer
	return BuildProgramsInto(nil, &co, tb, warps, lineBytes, mapAddr)
}

// BuildProgramsInto is BuildPrograms with caller-owned buffers: dst is
// recycled for the program slice (grown as needed, every program
// Reset), and co coalesces the TB into its own reused buffers. The
// simulator keeps both across TB launches, so steady-state program
// construction reuses the same backing arrays instead of allocating
// per TB.
func BuildProgramsInto(dst []WarpProgram, co *trace.Coalescer, tb *trace.TB, warps, lineBytes int, mapAddr func(uint64) uint64) []WarpProgram {
	if cap(dst) >= warps {
		dst = dst[:warps]
	} else {
		dst = append(dst[:cap(dst)], make([]WarpProgram, warps-cap(dst))...)
	}
	for w := range dst {
		dst[w].Reset()
	}
	reqs := co.Coalesce(tb, lineBytes).Requests
	i := 0
	for i < len(reqs) {
		j := i
		for j < len(reqs) && reqs[j].Warp == reqs[i].Warp && reqs[j].Kind == reqs[i].Kind {
			j++
		}
		w := int(reqs[i].Warp)
		if w >= 0 && w < warps {
			p := &dst[w]
			for _, r := range reqs[i:j] {
				addr := r.Addr
				if mapAddr != nil {
					addr = mapAddr(addr)
				}
				p.tx = append(p.tx, Transaction{Addr: addr, Write: r.Kind == trace.Write})
			}
			p.ends = append(p.ends, int32(len(p.tx)))
		}
		i = j
	}
	return dst
}

// ReadSink receives read completions from the Fabric. The SM itself
// implements it, so issuing a read carries no per-request callback
// allocation.
type ReadSink interface {
	// FillLine fires when the data for line (the address passed to
	// IssueRead) returns to the SM.
	FillLine(line uint64, at sim.Time)
}

// Fabric is the memory system below the SM, provided by gpusim.
type Fabric interface {
	// IssueRead injects a read transaction from an SM; sink.FillLine
	// fires when the data returns.
	IssueRead(now sim.Time, sm int, addr uint64, sink ReadSink)
	// IssueWrite injects a write transaction; stores do not block warps.
	IssueWrite(now sim.Time, sm int, addr uint64)
}

// Config parameterizes one SM.
type Config struct {
	CoreClock sim.Clock
	L1        cache.Config
	// L1HitCycles is the load-to-use latency of an L1 hit.
	L1HitCycles int
	// MSHRs bounds outstanding L1 misses (32 in Table I); New requires
	// at least one.
	MSHRs int
	// MaxTBs is the TB occupancy limit of the SM.
	MaxTBs int
	// IssueStaggerCycles separates the first issue of sibling warps.
	IssueStaggerCycles int
}

// DefaultConfig returns Table I's SM parameters.
func DefaultConfig() Config {
	return Config{
		CoreClock:          sim.ClockFromMHz(1400),
		L1:                 cache.L1Config(),
		L1HitCycles:        28,
		MSHRs:              32,
		MaxTBs:             8,
		IssueStaggerCycles: 4,
	}
}

// Stats aggregates per-SM counters.
type Stats struct {
	L1            cache.Stats
	Transactions  int64
	ReadTx        int64
	WriteTx       int64
	MSHRStallTime sim.Time
	TBsCompleted  int64
}

// warpState is the execution state of one running warp. States are
// pooled per SM and recycled when the warp retires.
type warpState struct {
	sm       *SM
	prog     *WarpProgram
	instrIdx int
	tb       *tbRun
	id       int
	gap      int // compute-gap cycles between memory instructions

	// Per-instruction completion tracking (reset by advance).
	outstanding int
	lastDone    sim.Time
}

// tbRun tracks one in-flight TB; pooled per SM.
type tbRun struct {
	sm         *SM
	warpsLeft  int
	onComplete func(now sim.Time)
}

// txEvent carries one transaction from LSU grant to issue; pooled per
// SM and released as soon as the issue event fires.
type txEvent struct {
	sm    *SM
	ws    *warpState // nil for writes
	addr  uint64
	write bool
}

// mshr is one L1 miss-status holding register: the warps waiting on
// its outstanding line, which SM.mshrLines holds.
type mshr struct {
	waiters []*warpState
}

// SM is one streaming multiprocessor.
type SM struct {
	ID     int
	cfg    Config
	eng    *sim.Engine
	fabric Fabric

	l1  *cache.Cache
	lsu sim.Server

	// mshrs is the L1 MSHR file, cfg.MSHRs entries. The first mshrUsed
	// hold outstanding misses, and mshrLines[i] is entry i's line, so a
	// lookup scans a dense array of lines. Free entries keep their
	// waiter slices' capacity for reuse.
	mshrs     []mshr
	mshrLines []uint64
	mshrUsed  int

	// stalled holds read transactions refused by a full MSHR file, in
	// arrival order (head-indexed ring so draining does not reallocate);
	// they retry as entries free.
	stalled     []stalledTx
	stalledHead int

	// Free lists for the pooled per-request records.
	warpFree []*warpState
	tbFree   []*tbRun
	txFree   []*txEvent

	activeTBs int
	stats     Stats
}

type stalledTx struct {
	addr  uint64
	since sim.Time
	ws    *warpState
}

// New builds an SM. It panics if cfg.MSHRs < 1: with no MSHR entry,
// every L1 miss would stall forever.
func New(eng *sim.Engine, id int, cfg Config, fabric Fabric) *SM {
	if cfg.MSHRs < 1 {
		panic(fmt.Sprintf("gpu: MSHRs = %d, want >= 1", cfg.MSHRs))
	}
	return &SM{
		ID:        id,
		cfg:       cfg,
		eng:       eng,
		fabric:    fabric,
		l1:        cache.MustNew(cfg.L1),
		mshrs:     make([]mshr, cfg.MSHRs),
		mshrLines: make([]uint64, cfg.MSHRs),
	}
}

// Stats returns a copy of the SM's counters.
func (s *SM) Stats() Stats {
	st := s.stats
	st.L1 = s.l1.Stats()
	return st
}

// ActiveTBs returns current TB occupancy.
func (s *SM) ActiveTBs() int { return s.activeTBs }

// CanAccept reports whether a new TB fits.
func (s *SM) CanAccept() bool { return s.activeTBs < s.cfg.MaxTBs }

// ---- pooled-record plumbing ----

func (s *SM) getWarp() *warpState {
	if n := len(s.warpFree); n > 0 {
		ws := s.warpFree[n-1]
		s.warpFree = s.warpFree[:n-1]
		return ws
	}
	return &warpState{sm: s}
}

func (s *SM) putWarp(ws *warpState) {
	ws.prog, ws.tb = nil, nil
	ws.instrIdx, ws.outstanding, ws.lastDone = 0, 0, 0
	s.warpFree = append(s.warpFree, ws)
}

func (s *SM) getTB() *tbRun {
	if n := len(s.tbFree); n > 0 {
		r := s.tbFree[n-1]
		s.tbFree = s.tbFree[:n-1]
		return r
	}
	return &tbRun{sm: s}
}

func (s *SM) putTB(r *tbRun) {
	r.warpsLeft, r.onComplete = 0, nil
	s.tbFree = append(s.tbFree, r)
}

func (s *SM) getTx() *txEvent {
	if n := len(s.txFree); n > 0 {
		t := s.txFree[n-1]
		s.txFree = s.txFree[:n-1]
		return t
	}
	return &txEvent{sm: s}
}

// Engine event handlers: package-level functions paired with pooled
// args, so scheduling them never allocates.

func warpAdvanceH(arg any) {
	ws := arg.(*warpState)
	ws.sm.advance(ws)
}

func tbGapDoneH(arg any) {
	run := arg.(*tbRun)
	run.sm.finishTB(run)
}

func txIssueH(arg any) {
	t := arg.(*txEvent)
	s, ws, addr, write := t.sm, t.ws, t.addr, t.write
	t.ws = nil
	s.txFree = append(s.txFree, t)
	if write {
		s.fabric.IssueWrite(s.eng.Now(), s.ID, addr)
		return
	}
	s.read(addr, ws)
}

// LaunchTB starts a TB built from per-warp programs. gapCycles is the
// compute time between a warp's memory instructions; onComplete fires
// when every warp has issued its last instruction and all its reads have
// returned. The progs slice and its programs must stay untouched by the
// caller until onComplete fires.
func (s *SM) LaunchTB(progs []WarpProgram, gapCycles int, onComplete func(now sim.Time)) {
	s.activeTBs++
	run := s.getTB()
	run.onComplete = onComplete
	now := s.eng.Now()
	launched := 0
	for w := range progs {
		if progs[w].NumInstrs() == 0 {
			continue
		}
		launched++
	}
	if launched == 0 {
		// Degenerate TB with no memory instructions: completes after one
		// compute gap.
		run.warpsLeft = 1
		s.eng.ScheduleCall(s.cfg.CoreClock.Cycles(int64(gapCycles)), tbGapDoneH, run)
		return
	}
	run.warpsLeft = launched
	for w := range progs {
		if progs[w].NumInstrs() == 0 {
			continue
		}
		ws := s.getWarp()
		ws.prog, ws.tb, ws.id, ws.gap = &progs[w], run, w, gapCycles
		ws.instrIdx = 0
		stagger := s.cfg.CoreClock.Cycles(int64(w * s.cfg.IssueStaggerCycles))
		s.eng.AtCall(now+stagger, warpAdvanceH, ws)
	}
}

func (s *SM) finishTB(run *tbRun) {
	run.warpsLeft--
	if run.warpsLeft == 0 {
		s.activeTBs--
		s.stats.TBsCompleted++
		done := run.onComplete
		s.putTB(run)
		if done != nil {
			done(s.eng.Now())
		}
	}
}

// advance issues the warp's next memory instruction: every transaction
// acquires the LSU (one per core cycle, so a fully diverged instruction
// occupies the LSU for 32 cycles — the greedy half of GTO), reads then
// traverse L1/MSHR/fabric. When the last read returns, the warp computes
// for gapCycles and advances again.
func (s *SM) advance(ws *warpState) {
	if ws.instrIdx >= ws.prog.NumInstrs() {
		run := ws.tb
		s.putWarp(ws)
		s.finishTB(run)
		return
	}
	instr := ws.prog.Instr(ws.instrIdx)
	ws.instrIdx++
	now := s.eng.Now()

	ws.outstanding = 1 // sentinel so completions during issue don't advance early
	ws.lastDone = 0

	for _, tx := range instr {
		_, grant := s.lsu.Acquire(now, s.cfg.CoreClock.Cycles(1))
		s.stats.Transactions++
		t := s.getTx()
		t.addr, t.write = tx.Addr, tx.Write
		if tx.Write {
			s.stats.WriteTx++
			// Stores are fire-and-forget through the write buffer; they
			// bypass the L1 (write-through, no-allocate for global data)
			// and do not block the warp.
			t.ws = nil
		} else {
			s.stats.ReadTx++
			ws.outstanding++
			t.ws = ws
		}
		s.eng.AtCall(grant, txIssueH, t)
	}
	// Retire the sentinel. If everything hit or the instruction was all
	// stores, the warp proceeds after the issue cycles alone.
	s.readDone(ws, now)
}

// readDone retires one outstanding read (or the issue sentinel) of the
// warp's current instruction; when the last one lands, the warp computes
// for its gap and advances.
func (s *SM) readDone(ws *warpState, t sim.Time) {
	if t > ws.lastDone {
		ws.lastDone = t
	}
	ws.outstanding--
	if ws.outstanding == 0 {
		at := ws.lastDone + s.cfg.CoreClock.Cycles(int64(ws.gap))
		if at < s.eng.Now() {
			at = s.eng.Now()
		}
		s.eng.AtCall(at, warpAdvanceH, ws)
	}
}

// read performs the L1 lookup path for one read transaction.
func (s *SM) read(addr uint64, ws *warpState) {
	now := s.eng.Now()
	line := addr &^ uint64(s.cfg.L1.LineBytes-1)

	// A miss already in flight: merge regardless of tag-array state.
	if i := s.pendingMSHR(line); i >= 0 {
		s.mshrs[i].waiters = append(s.mshrs[i].waiters, ws)
		return
	}
	if s.l1.Probe(line) {
		s.l1.Access(line, false) // update LRU and stats
		s.readDone(ws, now+s.cfg.CoreClock.Cycles(int64(s.cfg.L1HitCycles)))
		return
	}
	// Primary miss. Check MSHR capacity before touching the tag array:
	// installing the line and then stalling would let the retry "hit"
	// without ever fetching the data.
	if s.mshrUsed == len(s.mshrs) {
		s.stalled = append(s.stalled, stalledTx{addr: addr, since: now, ws: ws})
		return
	}
	s.l1.Access(line, false) // allocate; write-through L1 victims are clean
	e := &s.mshrs[s.mshrUsed]
	s.mshrLines[s.mshrUsed] = line
	s.mshrUsed++
	e.waiters = append(e.waiters, ws)
	s.fabric.IssueRead(now, s.ID, line, s)
}

// pendingMSHR returns the index of the MSHR holding line, or -1 if no
// miss to line is outstanding.
func (s *SM) pendingMSHR(line uint64) int {
	return slices.Index(s.mshrLines[:s.mshrUsed], line)
}

// FillLine implements ReadSink: it completes an outstanding miss, wakes
// waiters and retries stalled transactions now that an MSHR entry is
// free.
func (s *SM) FillLine(line uint64, at sim.Time) {
	if i := s.pendingMSHR(line); i >= 0 {
		e := &s.mshrs[i]
		for j, ws := range e.waiters {
			s.readDone(ws, at)
			e.waiters[j] = nil
		}
		e.waiters = e.waiters[:0]
		// Free the entry by swapping it past the occupied prefix.
		s.mshrUsed--
		s.mshrs[i], s.mshrs[s.mshrUsed] = s.mshrs[s.mshrUsed], s.mshrs[i]
		s.mshrLines[i] = s.mshrLines[s.mshrUsed]
	}
	for s.stalledHead < len(s.stalled) && s.mshrUsed < len(s.mshrs) {
		tx := s.stalled[s.stalledHead]
		s.stalled[s.stalledHead] = stalledTx{}
		s.stalledHead++
		s.stats.MSHRStallTime += at - tx.since
		s.read(tx.addr, tx.ws)
	}
	if s.stalledHead == len(s.stalled) {
		s.stalled = s.stalled[:0]
		s.stalledHead = 0
	} else if s.stalledHead > len(s.stalled)/2 {
		// Compact once the dead prefix dominates, so sustained MSHR
		// pressure cannot grow the ring with total-stalls-ever-seen.
		n := copy(s.stalled, s.stalled[s.stalledHead:])
		for i := n; i < len(s.stalled); i++ {
			s.stalled[i] = stalledTx{}
		}
		s.stalled = s.stalled[:n]
		s.stalledHead = 0
	}
}
