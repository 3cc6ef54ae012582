package obs

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing value with lock-free updates:
// Add is a CAS loop over float bits and performs zero allocations.
// Construct with NewCounter or through a CounterVec.
type Counter struct {
	name   string
	help   string
	labels string // pre-rendered `k="v",` pairs, "" for no labels
	bits   atomic.Uint64
}

// NewCounter builds an unlabeled counter family.
func NewCounter(name, help string) *Counter {
	return &Counter{name: name, help: help}
}

// Add increases the counter by v, which must not be negative. It is
// safe for concurrent use and never allocates.
func (c *Counter) Add(v float64) {
	for {
		old := c.bits.Load()
		if c.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Collect implements Collector for a standalone counter family.
func (c *Counter) Collect(b []byte) []byte {
	b = appendHeader(b, c.name, c.help, "counter")
	return appendSample(b, c.name, c.labels, c.Value())
}

// CounterVec is a counter family partitioned by a fixed set of label
// names. Children are created on first With and live for the process
// lifetime, so callers on hot paths should resolve their child once and
// hold the *Counter.
type CounterVec struct {
	help string
	vec[*Counter]
}

// NewCounterVec builds a labeled counter family.
func NewCounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{help: help, vec: newVec[*Counter](name, labelNames)}
}

// With returns the child counter for the given label values (one per
// label name, in order), creating it on first use.
func (v *CounterVec) With(values ...string) *Counter {
	return v.with(values, func(labels string) *Counter {
		return &Counter{name: v.name, help: v.help, labels: labels}
	})
}

// Collect renders the family: HELP/TYPE once, then every child's series
// in creation order.
func (v *CounterVec) Collect(b []byte) []byte {
	b = appendHeader(b, v.name, v.help, "counter")
	for _, c := range v.all() {
		b = appendSample(b, c.name, c.labels, c.Value())
	}
	return b
}
