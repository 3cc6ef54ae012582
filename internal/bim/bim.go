// Package bim implements Binary Invertible Matrices (BIMs) over GF(2),
// the unified representation of AND/XOR address mapping schemes from
// "Get Out of the Valley" (ISCA 2018), Section IV-A.
//
// A mapping is the matrix-vector product out = M × in where multiplication
// is bitwise AND and addition is XOR. Requiring M to be invertible
// guarantees a one-to-one mapping between input and output addresses. In
// hardware, output bit i is the XOR tree over the input bits selected by
// row i, so a BIM costs one cycle on contemporary GPUs (Figure 7).
//
// Matrices are limited to 64 bits per side, which comfortably covers
// physical address spaces; rows are stored as uint64 bit masks with input
// bit j at mask bit j.
package bim

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"strings"
)

// MaxBits is the largest supported matrix dimension.
const MaxBits = 64

// Matrix is an n×n binary matrix. Row i holds the mask of input bits that
// are XORed together to produce output bit i. The zero value is unusable;
// construct with Identity, New, or a generator.
type Matrix struct {
	n    int
	rows []uint64
}

// New builds a matrix from explicit rows; rows[i] is the input-bit mask of
// output bit i. It panics if n is out of range or len(rows) != n.
func New(n int, rows []uint64) Matrix {
	checkDim(n)
	if len(rows) != n {
		panic(fmt.Sprintf("bim: got %d rows for dimension %d", len(rows), n))
	}
	m := Matrix{n: n, rows: make([]uint64, n)}
	copy(m.rows, rows)
	mask := dimMask(n)
	for i, r := range m.rows {
		if r&^mask != 0 {
			panic(fmt.Sprintf("bim: row %d has bits above dimension %d", i, n))
		}
	}
	return m
}

func checkDim(n int) {
	if n <= 0 || n > MaxBits {
		panic(fmt.Sprintf("bim: dimension %d out of range (1..%d)", n, MaxBits))
	}
}

func dimMask(n int) uint64 {
	if n == 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(n)) - 1
}

// Identity returns the n×n identity matrix (the BASE mapping).
func Identity(n int) Matrix {
	checkDim(n)
	rows := make([]uint64, n)
	for i := range rows {
		rows[i] = 1 << uint(i)
	}
	return Matrix{n: n, rows: rows}
}

// N returns the matrix dimension.
func (m Matrix) N() int { return m.n }

// Row returns the input-bit mask of output bit i.
func (m Matrix) Row(i int) uint64 { return m.rows[i] }

// SetRow returns a copy of m with row i replaced. The original is not
// modified; Matrix values are treated as immutable once built.
func (m Matrix) SetRow(i int, mask uint64) Matrix {
	if mask&^dimMask(m.n) != 0 {
		panic("bim: SetRow mask exceeds dimension")
	}
	rows := make([]uint64, m.n)
	copy(rows, m.rows)
	rows[i] = mask
	return Matrix{n: m.n, rows: rows}
}

// Apply computes the mapped address M × addr over GF(2). Address bits at or
// above the dimension are preserved unchanged, so a 30-bit matrix can be
// applied to addresses carried in wider integers.
func (m Matrix) Apply(addr uint64) uint64 {
	in := addr & dimMask(m.n)
	var out uint64
	for i, row := range m.rows {
		out |= uint64(bits.OnesCount64(row&in)&1) << uint(i)
	}
	return out | (addr &^ dimMask(m.n))
}

// ApplyBatch maps every address in addrs in place, producing exactly
// Apply's result for each element. The row masks are hoisted into a
// stack-local array and the dimension mask is derived once per batch,
// so the per-address loop carries none of Apply's per-call overhead and
// — because a local array provably cannot alias the addrs being written
// — none of the reloads the in-place stores would otherwise force
// (~1.5× over looping Apply on a 30-bit matrix). It stays for the
// public valleymap.BIM API; mappers apply a compiled Table instead,
// several times faster again (BenchmarkApplyVsApplyBatch).
func (m Matrix) ApplyBatch(addrs []uint64) {
	var rowbuf [MaxBits]uint64
	rows := rowbuf[:copy(rowbuf[:], m.rows)]
	dm := dimMask(m.n)
	for k, addr := range addrs {
		in := addr & dm
		var out uint64
		for i, row := range rows {
			out |= uint64(bits.OnesCount64(row&in)&1) << uint(i)
		}
		addrs[k] = out | (addr &^ dm)
	}
}

// IsIdentity reports whether m maps every address to itself.
func (m Matrix) IsIdentity() bool {
	for i, r := range m.rows {
		if r != 1<<uint(i) {
			return false
		}
	}
	return true
}

// IsPermutation reports whether m merely rearranges bits: exactly one 1 in
// every row and every column.
func (m Matrix) IsPermutation() bool {
	var colSeen uint64
	for _, r := range m.rows {
		if bits.OnesCount64(r) != 1 || colSeen&r != 0 {
			return false
		}
		colSeen |= r
	}
	return true
}

// Rank computes the GF(2) rank via Gaussian elimination.
func (m Matrix) Rank() int {
	work := make([]uint64, m.n)
	copy(work, m.rows)
	rank := 0
	for col := 0; col < m.n; col++ {
		pivot := -1
		for r := rank; r < m.n; r++ {
			if work[r]&(1<<uint(col)) != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			continue
		}
		work[rank], work[pivot] = work[pivot], work[rank]
		for r := 0; r < m.n; r++ {
			if r != rank && work[r]&(1<<uint(col)) != 0 {
				work[r] ^= work[rank]
			}
		}
		rank++
	}
	return rank
}

// Invertible reports whether m has full rank over GF(2), i.e. whether the
// mapping is one-to-one.
func (m Matrix) Invertible() bool { return m.Rank() == m.n }

// ErrSingular is returned by Inverse for rank-deficient matrices.
var ErrSingular = errors.New("bim: matrix is singular over GF(2)")

// Inverse returns M⁻¹ such that M⁻¹ × (M × a) = a for every address a.
func (m Matrix) Inverse() (Matrix, error) {
	work := make([]uint64, m.n)
	copy(work, m.rows)
	inv := Identity(m.n).rows
	for col := 0; col < m.n; col++ {
		pivot := -1
		for r := col; r < m.n; r++ {
			if work[r]&(1<<uint(col)) != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return Matrix{}, ErrSingular
		}
		work[col], work[pivot] = work[pivot], work[col]
		inv[col], inv[pivot] = inv[pivot], inv[col]
		for r := 0; r < m.n; r++ {
			if r != col && work[r]&(1<<uint(col)) != 0 {
				work[r] ^= work[col]
				inv[r] ^= inv[col]
			}
		}
	}
	return Matrix{n: m.n, rows: inv}, nil
}

// Mul returns the composition m∘b, the matrix that applies b first and
// then m: (m.Mul(b)).Apply(a) == m.Apply(b.Apply(a)).
func (m Matrix) Mul(b Matrix) Matrix {
	if m.n != b.n {
		panic("bim: dimension mismatch in Mul")
	}
	rows := make([]uint64, m.n)
	for i, r := range m.rows {
		var acc uint64
		for r != 0 {
			j := bits.TrailingZeros64(r)
			acc ^= b.rows[j]
			r &= r - 1
		}
		rows[i] = acc
	}
	return Matrix{n: m.n, rows: rows}
}

// Equal reports element-wise equality.
func (m Matrix) Equal(b Matrix) bool {
	if m.n != b.n {
		return false
	}
	for i := range m.rows {
		if m.rows[i] != b.rows[i] {
			return false
		}
	}
	return true
}

// GateCost reports the hardware cost of the XOR-gate tree realizing m
// (Figure 7): the total number of 2-input XOR gates and the critical-path
// depth in gate levels. Identity rows cost nothing (plain wires).
func (m Matrix) GateCost() (xorGates, depth int) {
	for _, r := range m.rows {
		k := bits.OnesCount64(r)
		if k <= 1 {
			continue
		}
		xorGates += k - 1
		d := bits.Len(uint(k - 1)) // ceil(log2(k))
		if 1<<uint(d) < k {
			d++
		}
		if d > depth {
			depth = d
		}
	}
	return xorGates, depth
}

// String renders the matrix as rows of 0/1 with the most significant input
// bit on the left, matching the paper's figures.
func (m Matrix) String() string {
	var sb strings.Builder
	for i := m.n - 1; i >= 0; i-- {
		for j := m.n - 1; j >= 0; j-- {
			if m.rows[i]&(1<<uint(j)) != 0 {
				sb.WriteByte('1')
			} else {
				sb.WriteByte('0')
			}
			if j > 0 {
				sb.WriteByte(' ')
			}
		}
		if i > 0 {
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// RandomConstrained generates an invertible matrix that regenerates only
// the output bits listed in outBits, each as a random XOR combination of
// the input bits in inMask; every other row stays identity. This is the
// generator behind the PAE, FAE and ALL schemes (Section IV-B).
//
// Each regenerated row always includes at least one input bit. Candidates
// are redrawn until the full matrix is invertible; random square GF(2)
// matrices are invertible with probability ≈ 0.29, so only a handful of
// retries are ever needed.
func RandomConstrained(rng *rand.Rand, n int, outBits []int, inMask uint64) Matrix {
	checkDim(n)
	if inMask == 0 {
		panic("bim: empty input mask")
	}
	if inMask&^dimMask(n) != 0 {
		panic("bim: input mask exceeds dimension")
	}
	for _, b := range outBits {
		if b < 0 || b >= n {
			panic(fmt.Sprintf("bim: output bit %d out of range", b))
		}
	}
	inBits := bitPositions(inMask)
	const maxAttempts = 10000
	for attempt := 0; attempt < maxAttempts; attempt++ {
		m := Identity(n)
		rows := make([]uint64, n)
		copy(rows, m.rows)
		for _, ob := range outBits {
			var mask uint64
			for mask == 0 {
				for _, ib := range inBits {
					if rng.Intn(2) == 1 {
						mask |= 1 << uint(ib)
					}
				}
			}
			rows[ob] = mask
		}
		cand := Matrix{n: n, rows: rows}
		if cand.Invertible() {
			return cand
		}
	}
	panic("bim: failed to generate an invertible matrix (constraints too tight)")
}

func bitPositions(mask uint64) []int {
	out := make([]int, 0, bits.OnesCount64(mask))
	for mask != 0 {
		out = append(out, bits.TrailingZeros64(mask))
		mask &= mask - 1
	}
	return out
}
