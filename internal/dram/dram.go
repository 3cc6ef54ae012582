// Package dram models the GDDR5 memory system of Table I: per-channel
// memory controllers with FR-FCFS scheduling [Rixner et al.], open-page
// row-buffer policy, banked DRAM timing (CL-tRCD-tRP = 12-12-12 at
// 924 MHz), a shared per-channel data bus, and the 3D-stacked variant of
// Section VI-D (stacks × vaults × banks behind TSVs).
//
// The model is event-driven: each bank serves one command sequence at a
// time, row hits cost a CAS, row misses cost PRE+ACT+CAS bounded by tRC,
// and completed bursts serialize on the channel data bus. This captures
// everything the paper measures at the DRAM level — row-buffer hit rate
// (Figure 15), bank-/channel-level parallelism (Figure 14) and the
// activate-dominated power differences (Figure 16).
//
// Requests recycle through a Pool and controllers schedule through the
// engine's handler API with per-bank kick records, so steady-state
// traffic does not allocate.
package dram

import (
	"fmt"

	"valleymap/internal/layout"
	"valleymap/internal/sim"
)

// Timing holds DRAM timing in DRAM command-clock cycles.
type Timing struct {
	Clock sim.Clock
	// CL is the CAS (read/write) latency; TRCD row-to-column delay;
	// TRP precharge time; TRC minimum ACT-to-ACT interval to one bank.
	CL, TRCD, TRP, TRC int
	// BurstCycles is the data-bus occupancy of one 128 B transaction.
	BurstCycles int
}

// HynixGDDR5Timing returns Table I's 924 MHz 12-12-12 timing. One 128 B
// transaction occupies the 32 B/cycle channel for 4 cycles
// (118.3 GB/s ÷ 4 channels ≈ 29.6 GB/s ≈ 32 B per 924 MHz cycle).
func HynixGDDR5Timing() Timing {
	return Timing{
		Clock:       sim.ClockFromMHz(924),
		CL:          12,
		TRCD:        12,
		TRP:         12,
		TRC:         40,
		BurstCycles: 4,
	}
}

// Stacked3DTiming returns the 3D-stacked configuration of Section VI-D:
// the same array timings but a much wider TSV data path (640 GB/s over 4
// stacks ≈ 173 B per cycle), modeled as single-cycle bursts.
func Stacked3DTiming() Timing {
	t := HynixGDDR5Timing()
	t.BurstCycles = 1
	return t
}

// Config describes one memory system.
type Config struct {
	// Layout decodes mapped addresses into channel/bank/row coordinates.
	Layout layout.Layout
	Timing Timing
}

// Request is one line-granular DRAM transaction on a *mapped* address.
type Request struct {
	Addr  uint64
	Write bool
	// Done is invoked exactly once when the data burst completes.
	Done func(done sim.Time)

	arrive sim.Time
	row    int
	bank   int
	ctl    *Controller
	pooled bool
}

// Pool recycles Requests. It is single-goroutine like the engine: one
// pool belongs to one simulation at a time, though it may be reused
// across sequential runs (gpusim's Runner does exactly that).
type Pool struct {
	free []*Request
}

// NewPool returns an empty request pool.
func NewPool() *Pool { return &Pool{} }

// Get returns a zeroed Request. The owning controller returns it to the
// pool automatically after its data burst completes (and Done, if any,
// has fired). Requests constructed directly — not from a pool — are
// never recycled, so external callers may still pass their own.
func (p *Pool) Get() *Request {
	if n := len(p.free); n > 0 {
		r := p.free[n-1]
		p.free = p.free[:n-1]
		return r
	}
	return &Request{pooled: true}
}

func (p *Pool) put(r *Request) {
	r.Addr, r.Write, r.Done = 0, false, nil
	r.arrive, r.row, r.bank, r.ctl = 0, 0, 0, nil
	p.free = append(p.free, r)
}

// Stats aggregates controller counters.
type Stats struct {
	Reads, Writes         int64
	RowHits, RowMisses    int64
	Activations           int64
	AvgQueueLatencyCycles float64 // arrival to burst completion, DRAM cycles
}

// RowBufferHitRate is Figure 15's metric.
func (s Stats) RowBufferHitRate() float64 {
	total := s.RowHits + s.RowMisses
	if total == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(total)
}

// bankKick is the pooled arg for a bank's deferred service event. Each
// bank owns exactly one (the scheduled flag guarantees at most one kick
// is in flight per bank), allocated once at controller construction.
type bankKick struct {
	c  *Controller
	bi int
}

type bank struct {
	openRow   int64 // -1 = closed
	readyAt   sim.Time
	lastAct   sim.Time
	queue     []*Request
	scheduled bool
	kick      *bankKick
}

// ParallelismProbe receives outstanding-count transitions for the
// Figure 14 metrics; see the metrics package.
type ParallelismProbe interface {
	ChannelDelta(now sim.Time, channel int, delta int)
	BankDelta(now sim.Time, channel, bank int, delta int)
}

// Controller is one memory channel: a bank array, an FR-FCFS picker per
// bank queue, and a shared data bus.
type Controller struct {
	eng     *sim.Engine
	cfg     Config
	rowOf   layout.Decoder
	bankOf  layout.Decoder // the global bank: vault and bank
	channel int
	banks   []bank
	bus     sim.Server
	probe   ParallelismProbe
	pool    *Pool // recycles pooled requests after completion; may be nil

	stats   Stats
	latency sim.Welford
}

// NewController builds the controller for one channel.
func NewController(eng *sim.Engine, cfg Config, channel int, probe ParallelismProbe) *Controller {
	n := cfg.Layout.BanksPerChannel()
	c := &Controller{
		eng: eng, cfg: cfg, channel: channel, probe: probe, banks: make([]bank, n),
		rowOf: cfg.Layout.Decoder(layout.Row), bankOf: cfg.Layout.BankDecoder(),
	}
	for i := range c.banks {
		c.banks[i].openRow = -1
		// Far enough in the past that the first ACT is never tRC-gated.
		c.banks[i].lastAct = -(sim.Second << 8)
		c.banks[i].kick = &bankKick{c: c, bi: i}
	}
	return c
}

// Stats returns a copy of the counters.
func (c *Controller) Stats() Stats {
	s := c.stats
	s.AvgQueueLatencyCycles = c.latency.Mean()
	return s
}

// Enqueue admits a transaction. Decoders compiled from the layout give
// its bank and row from the (already mapped) address.
func (c *Controller) Enqueue(r *Request) {
	now := c.eng.Now()
	r.arrive = now
	r.row = c.rowOf.Decode(r.Addr)
	r.bank = c.bankOf.Decode(r.Addr)
	r.ctl = c
	if r.bank >= len(c.banks) {
		panic(fmt.Sprintf("dram: bank %d out of range (%d banks)", r.bank, len(c.banks)))
	}
	b := &c.banks[r.bank]
	b.queue = append(b.queue, r)
	if c.probe != nil {
		c.probe.ChannelDelta(now, c.channel, +1)
		c.probe.BankDelta(now, c.channel, r.bank, +1)
	}
	c.kick(r.bank, now)
}

// kick schedules or performs service on a bank.
func (c *Controller) kick(bi int, now sim.Time) {
	b := &c.banks[bi]
	if b.scheduled || len(b.queue) == 0 {
		return
	}
	if b.readyAt > now {
		c.scheduleKick(bi, b.readyAt)
		return
	}
	c.service(bi, now)
}

func bankKickH(arg any) {
	k := arg.(*bankKick)
	k.c.banks[k.bi].scheduled = false
	k.c.kick(k.bi, k.c.eng.Now())
}

func (c *Controller) scheduleKick(bi int, at sim.Time) {
	b := &c.banks[bi]
	b.scheduled = true
	c.eng.AtCall(at, bankKickH, b.kick)
}

// burstDoneH fires when a request's data burst completes: it retires
// the parallelism counts, invokes Done, and recycles pooled requests.
func burstDoneH(arg any) {
	r := arg.(*Request)
	c := r.ctl
	done := c.eng.Now()
	if c.probe != nil {
		c.probe.ChannelDelta(done, c.channel, -1)
		c.probe.BankDelta(done, c.channel, r.bank, -1)
	}
	if r.Done != nil {
		r.Done(done)
	}
	if r.pooled && c.pool != nil {
		c.pool.put(r)
	}
}

// service performs FR-FCFS selection and issues one request on bank bi.
func (c *Controller) service(bi int, now sim.Time) {
	b := &c.banks[bi]
	t := c.cfg.Timing
	cyc := func(n int) sim.Time { return t.Clock.Cycles(int64(n)) }

	// FR-FCFS: oldest row hit first, else oldest request.
	sel := -1
	if b.openRow >= 0 {
		for i, r := range b.queue {
			if int64(r.row) == b.openRow {
				sel = i
				break
			}
		}
	}
	rowHit := sel >= 0
	if sel < 0 {
		sel = 0
	}
	r := b.queue[sel]

	var dataReady sim.Time
	if rowHit {
		c.stats.RowHits++
		dataReady = now + cyc(t.CL)
		b.readyAt = now + cyc(t.BurstCycles)
	} else {
		// ACT-to-ACT distance to the same bank is bounded by tRC.
		actAt := now
		if b.openRow >= 0 {
			actAt += cyc(t.TRP) // precharge the open row first
		}
		if min := b.lastAct + cyc(t.TRC); actAt < min {
			// tRC not yet satisfied: retry when it is (sel is the queue
			// head here, so nothing is reordered).
			c.scheduleKick(bi, min)
			return
		}
		c.stats.RowMisses++
		c.stats.Activations++
		b.lastAct = actAt
		b.openRow = int64(r.row)
		casAt := actAt + cyc(t.TRCD)
		dataReady = casAt + cyc(t.CL)
		b.readyAt = casAt + cyc(t.BurstCycles)
	}

	// Remove the selected request.
	copy(b.queue[sel:], b.queue[sel+1:])
	b.queue[len(b.queue)-1] = nil
	b.queue = b.queue[:len(b.queue)-1]

	// The burst serializes on the channel data bus.
	_, busDone := c.bus.Acquire(dataReady, cyc(t.BurstCycles))
	if r.Write {
		c.stats.Writes++
	} else {
		c.stats.Reads++
	}
	c.latency.Observe(t.Clock.ToCycles(busDone - r.arrive))
	c.eng.AtCall(busDone, burstDoneH, r)

	// Keep draining the queue.
	if len(b.queue) > 0 {
		c.scheduleKick(bi, b.readyAt)
	}
}

// System is the set of per-channel controllers.
type System struct {
	channelOf   layout.Decoder
	Controllers []*Controller
	pool        *Pool
}

// NewSystem builds controllers for every channel in the layout with a
// fresh request pool.
func NewSystem(eng *sim.Engine, cfg Config, probe ParallelismProbe) *System {
	return NewSystemWithPool(eng, cfg, probe, NewPool())
}

// NewSystemWithPool builds controllers sharing the given request pool,
// so a caller running many simulations back to back (gpusim.Runner)
// reuses request records across runs.
func NewSystemWithPool(eng *sim.Engine, cfg Config, probe ParallelismProbe, pool *Pool) *System {
	s := &System{channelOf: cfg.Layout.Decoder(layout.Channel), pool: pool}
	for ch := 0; ch < cfg.Layout.Channels(); ch++ {
		c := NewController(eng, cfg, ch, probe)
		c.pool = pool
		s.Controllers = append(s.Controllers, c)
	}
	return s
}

// Get returns a pooled Request ready to fill in and Enqueue. It is
// recycled automatically after its burst completes and Done fires.
func (s *System) Get() *Request { return s.pool.Get() }

// Enqueue routes a transaction to its channel controller.
func (s *System) Enqueue(r *Request) {
	s.Controllers[s.channelOf.Decode(r.Addr)].Enqueue(r)
}

// Stats sums controller counters.
func (s *System) Stats() Stats {
	var out Stats
	var latSum float64
	var latN int64
	for _, c := range s.Controllers {
		st := c.Stats()
		out.Reads += st.Reads
		out.Writes += st.Writes
		out.RowHits += st.RowHits
		out.RowMisses += st.RowMisses
		out.Activations += st.Activations
		n := st.Reads + st.Writes
		latSum += st.AvgQueueLatencyCycles * float64(n)
		latN += n
	}
	if latN > 0 {
		out.AvgQueueLatencyCycles = latSum / float64(latN)
	}
	return out
}
