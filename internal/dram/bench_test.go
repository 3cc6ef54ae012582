package dram

import (
	"testing"

	"valleymap/internal/layout"
	"valleymap/internal/sim"
)

// drainBatch is the number of requests newChannelDrain enqueues per
// batch: 16 per bank of a Hynix channel.
const drainBatch = 256

// newChannelDrain builds a memory system and returns a function that
// enqueues one batch of pooled requests on channel 0 through
// System.Enqueue and runs the engine until the batch drains. The batch
// spreads over every bank and alternates two rows per bank, so FR-FCFS
// serves both row hits and row misses; every fourth request is a write.
// Requests go back to the pool as their bursts complete, so once one
// batch has grown the pool and the bank queues, a batch allocates
// nothing.
func newChannelDrain(cfg Config) (*System, func()) {
	eng := &sim.Engine{}
	sys := NewSystem(eng, cfg, nil)
	l := cfg.Layout
	addrs := make([]uint64, drainBatch)
	for i := range addrs {
		bank := uint64(i % l.BanksPerChannel())
		row := uint64(i / l.BanksPerChannel() % 2)
		col := uint64(i / (2 * l.BanksPerChannel()))
		addrs[i] = l.Compose(layout.Row, row) | l.Compose(layout.Bank, bank) | l.Compose(layout.Column, col)
	}
	return sys, func() {
		for i, a := range addrs {
			r := sys.Get()
			r.Addr, r.Write = a, i%4 == 3
			sys.Enqueue(r)
		}
		eng.Run()
	}
}

// BenchmarkChannelDrain is the DRAM model's isolated benchmark: one op
// enqueues drainBatch requests on one channel and drains them, so it
// times the address decode, the bank queues, FR-FCFS selection and the
// engine events of the controller without the SMs, NoC or LLC.
func BenchmarkChannelDrain(b *testing.B) {
	_, drain := newChannelDrain(testCfg())
	drain()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drain()
	}
}

// TestChannelDrainZeroAlloc pins the DRAM model's pooling: once one
// batch has grown the request pool and the bank queues, enqueueing and
// draining another allocates nothing, and every request is served.
func TestChannelDrainZeroAlloc(t *testing.T) {
	sys, drain := newChannelDrain(testCfg())
	drain()
	if avg := testing.AllocsPerRun(20, drain); avg != 0 {
		t.Errorf("draining a warmed-up batch allocates %v per batch, want 0", avg)
	}
	st := sys.Stats()
	if served := st.Reads + st.Writes; served != 22*drainBatch {
		t.Errorf("served %d requests, want %d", served, 22*drainBatch)
	}
	if st.RowHits == 0 || st.RowMisses == 0 {
		t.Errorf("want both row hits and misses, got %d hits and %d misses", st.RowHits, st.RowMisses)
	}
}
