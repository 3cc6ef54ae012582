package bim

import "math/bits"

// Table is a Matrix compiled for software apply: one 256-entry XOR
// table per input byte, ⌈n/8⌉ of them (4 × 256 words for the 30-bit
// Hynix layout). Entry v of table k is the XOR of the matrix columns of
// input bits 8k..8k+7 selected by the bits of v, so M × addr is the XOR
// of one entry per input byte instead of one popcount per row — the
// software form of the XOR tree in Figure 7 (the "Four Russians" trick).
// A Table is immutable once built and safe for concurrent use. The zero
// Table maps every address to itself.
type Table struct {
	mask uint64 // input bits the matrix covers; 0 for the zero Table
	t    [][256]uint64
}

// Table compiles m. Compiling costs about as much as a hundred Apply
// calls, so build a Table once per matrix and reuse it.
func (m Matrix) Table() Table {
	var cols [MaxBits]uint64 // cols[j]: output bits that read input bit j
	for i, row := range m.rows {
		for r := row; r != 0; r &= r - 1 {
			cols[bits.TrailingZeros64(r)] |= 1 << uint(i)
		}
	}
	t := make([][256]uint64, (m.n+7)/8)
	for k := range t {
		for v := 1; v < 256; v++ {
			t[k][v] = t[k][v&(v-1)] ^ cols[8*k+bits.TrailingZeros8(uint8(v))]
		}
	}
	return Table{mask: dimMask(m.n), t: t}
}

// Apply computes exactly Matrix.Apply's result for the compiled matrix:
// address bits at or above the dimension pass through unchanged.
func (t Table) Apply(addr uint64) uint64 {
	in := addr & t.mask
	out := addr &^ t.mask
	for k := range t.t {
		out ^= t.t[k][uint8(in>>(8*k))]
	}
	return out
}

// ApplyBatch maps every address in addrs in place, producing exactly
// Apply's result for each element.
func (t Table) ApplyBatch(addrs []uint64) {
	for i, a := range addrs {
		addrs[i] = t.Apply(a)
	}
}
