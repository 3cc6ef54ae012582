package sim

import (
	"slices"
	"testing"
)

// orderProg decodes fuzz bytes into a schedule program and checks the
// engine against a reference model: a plain list of pending events from
// which the minimum (time, scheduling order) must be the next to fire.
// An exhausted program reads zeros, so every input terminates.
type orderProg struct {
	t       *testing.T
	data    []byte
	e       Engine
	pending []*orderEv // the reference queue, in scheduling order
	seq     int        // scheduling counter across the whole program
	now     Time       // the reference clock
	fired   uint64     // the reference event count since the last Reset
	lastAt  Time       // time of the most recently scheduled event
}

type orderEv struct {
	at  Time
	seq int
}

func (p *orderProg) byte() byte {
	if len(p.data) == 0 {
		return 0
	}
	b := p.data[0]
	p.data = p.data[1:]
	return b
}

// delay decodes a delay from 0 to about 2^40 ps, biased towards ties
// and towards the wheel's digit boundaries.
func (p *orderProg) delay() Time {
	b := p.byte()
	switch b >> 6 {
	case 0:
		return 0
	case 1:
		// 0x40-0x4f: up to 15 ps. 0x50-0x7f: 2^(j·wheelBits) + δ with
		// j = 1, 2, 3 from bits 4-5, every digit boundary below 2^40,
		// and δ = -1, 0, +1 from the low bits.
		if j := int(b >> 4 & 3); j != 0 {
			return Time(1)<<(j*wheelBits) + Time(b&15)%3 - 1
		}
		return Time(b & 15)
	case 2:
		return Time(p.byte())<<8 | Time(p.byte())
	default:
		return Time(p.byte()) << (b % 33)
	}
}

// schedule adds an event at t through one of the two handler entry
// points and mirrors it in the reference queue.
func (p *orderProg) schedule(t Time, viaDelay bool) {
	ev := &orderEv{at: t, seq: p.seq}
	p.seq++
	p.lastAt = t
	p.pending = append(p.pending, ev)
	if viaDelay {
		p.e.ScheduleCall(t-p.e.Now(), p.fire, ev)
	} else {
		p.e.AtCall(t, p.fire, ev)
	}
}

// fire is every event's handler: it checks the event against the
// reference minimum, then schedules 0–3 children from the program.
func (p *orderProg) fire(arg any) {
	ev := arg.(*orderEv)
	if len(p.pending) == 0 {
		p.t.Fatalf("event (t=%d, #%d) fired with the reference queue empty", ev.at, ev.seq)
	}
	first := 0
	for i, q := range p.pending {
		if q.at < p.pending[first].at {
			first = i
		}
	}
	if want := p.pending[first]; want != ev {
		p.t.Fatalf("fired (t=%d, #%d), want (t=%d, #%d)", ev.at, ev.seq, want.at, want.seq)
	}
	p.pending = append(p.pending[:first], p.pending[first+1:]...)
	p.now = ev.at
	p.fired++
	p.check("in handler")
	for n := p.byte() % 4; n > 0; n-- {
		p.schedule(p.e.Now()+p.delay(), n%2 == 0)
	}
}

func (p *orderProg) check(where string) {
	if p.e.Now() != p.now {
		p.t.Fatalf("%s: Now() = %d, want %d", where, p.e.Now(), p.now)
	}
	if p.e.Pending() != len(p.pending) {
		p.t.Fatalf("%s: Pending() = %d, want %d", where, p.e.Pending(), len(p.pending))
	}
	if p.e.Events() != p.fired {
		p.t.Fatalf("%s: Events() = %d, want %d", where, p.e.Events(), p.fired)
	}
}

func (p *orderProg) run() {
	for len(p.data) > 0 {
		switch op := p.byte() % 8; op {
		case 0, 1:
			p.schedule(p.e.Now()+p.delay(), op == 0)
		case 2:
			// A tie with the latest scheduled event, if it is not past.
			p.schedule(max(p.lastAt, p.e.Now()), true)
		case 3:
			budget := int(p.byte() % 32)
			before := p.fired
			drained := p.e.RunBounded(budget)
			if n := int(p.fired - before); n > budget || (n < budget && len(p.pending) > 0) {
				p.t.Fatalf("RunBounded(%d) fired %d with %d pending", budget, n, len(p.pending))
			}
			if drained != (len(p.pending) == 0) {
				p.t.Fatalf("RunBounded(%d) = %v with %d pending", budget, drained, len(p.pending))
			}
			p.check("after RunBounded")
		case 4:
			deadline := p.e.Now() + p.delay()
			drained := p.e.RunUntil(deadline)
			for _, q := range p.pending {
				if q.at <= deadline {
					p.t.Fatalf("RunUntil(%d) left (t=%d, #%d) pending", deadline, q.at, q.seq)
				}
			}
			if drained != (len(p.pending) == 0) {
				p.t.Fatalf("RunUntil(%d) = %v with %d pending", deadline, drained, len(p.pending))
			}
			if !drained {
				p.now = deadline
			}
			p.check("after RunUntil")
		case 5:
			if end := p.e.Run(); end != p.now {
				p.t.Fatalf("Run() = %d, want %d", end, p.now)
			}
			p.check("after Run")
		case 6:
			p.e.Reset()
			p.pending, p.now, p.fired = p.pending[:0], 0, 0
			p.check("after Reset")
		case 7:
			p.schedule(p.e.Now(), false)
		}
	}
	p.e.Run()
	p.check("after the final Run")
}

// FuzzEngineOrder holds the engine to its determinism contract under
// arbitrary schedule programs: events scheduled up front and from
// handlers, equal-time ties, delays up to 2^40 ps, interleaved with
// RunBounded, RunUntil and Reset. Every event must fire in (time,
// scheduling order) with Now() at its time, and Pending(), Events() and
// Now() must match the reference model after every step.
func FuzzEngineOrder(f *testing.F) {
	// at encodes a delay of d ps (d < 65536).
	at := func(d int) []byte { return []byte{0x80, byte(d >> 8), byte(d)} }
	// The RunUntil trap: events at 100 and 101, RunUntil(50), then
	// events at 60 and 99. A queue that moves its base to 100 while
	// checking the deadline misfiles the two events scheduled after it.
	f.Add(slices.Concat([]byte{0}, at(100), []byte{0}, at(101), []byte{4}, at(50),
		[]byte{0}, at(10), []byte{0}, at(49), []byte{5}))
	// Equal-time ties scheduled up front and from handlers.
	f.Add([]byte{7, 7, 0, 0x41, 2, 2, 3, 2, 7, 1, 0, 5})
	// Events at 255<<26, 64 and 7; fire one, Reset with two pending,
	// then events at 3 and 0 and a Run.
	f.Add(slices.Concat([]byte{0, 0xe0, 0xff, 1, 0xc8, 0x10, 0}, at(7),
		[]byte{3, 1, 0, 6, 0}, at(3), []byte{7, 5}))
	// boundary encodes the delay 2^(j·wheelBits) + d, d in -1..1.
	boundary := func(j, d int) byte { return byte(0x40 | j<<4 | (d + 1)) }
	// One program per digit boundary b = 2^(j·wheelBits) below 2^40:
	// events at b, b-1 and b+1 and a tie at b+1, then RunUntil(b-1),
	// which fires b-1 and must stop short of b's slot. That event's
	// handler schedules one more at b, into b's slot before it cascades;
	// the Run that follows fires the first event at b, whose handler
	// schedules another at b after the cascade. The three events at b
	// must fire in scheduling order. Then, after a Reset, two events at
	// b+1 and RunUntil(b): it must cascade b's slot, whose start is the
	// deadline, and stop without firing them.
	for j := 1; j <= 3; j++ {
		f.Add([]byte{0, boundary(j, 0), 1, boundary(j, -1), 0, boundary(j, 1), 2,
			4, boundary(j, -1), 1, 0x41, 5, 1, 0, 0, 0, 0, 0,
			6, 0, boundary(j, 1), 2, 4, boundary(j, 0), 5})
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Longer programs add little coverage and make the fuzzer's
		// minimizer, which is quadratic in the input, stall the run.
		if len(data) > 256 {
			data = data[:256]
		}
		p := &orderProg{t: t, data: data}
		p.run()
	})
}
