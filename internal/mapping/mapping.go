// Package mapping constructs the six DRAM address mapping schemes
// evaluated in "Get Out of the Valley" (ISCA 2018): BASE, PM, RMP, PAE,
// FAE and ALL. Every scheme is represented as a Binary Invertible Matrix
// (internal/bim) applied to the physical address right after memory
// coalescing, so the whole design space shares one hardware realization —
// a tree of XOR gates (Figure 7).
package mapping

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"valleymap/internal/bim"
	"valleymap/internal/layout"
)

// Scheme names an address mapping strategy.
type Scheme string

// The schemes of Section VI.
const (
	BASE Scheme = "BASE" // Hynix address map, identity BIM
	PM   Scheme = "PM"   // permutation-based mapping (Zhang/Chatterjee)
	RMP  Scheme = "RMP"  // remap highest-average-entropy bits to bank+channel
	PAE  Scheme = "PAE"  // page-address entropy (row|bank|channel inputs)
	FAE  Scheme = "FAE"  // full-address entropy (adds column inputs)
	ALL  Scheme = "ALL"  // regenerate all non-block bits from full address
)

// Schemes lists all schemes in the paper's presentation order.
func Schemes() []Scheme { return []Scheme{BASE, PM, RMP, PAE, FAE, ALL} }

// ParseScheme resolves a case-insensitive scheme name (as it appears in
// CLI flags and service request bodies) to a Scheme.
func ParseScheme(name string) (Scheme, error) {
	up := Scheme(strings.ToUpper(strings.TrimSpace(name)))
	for _, s := range Schemes() {
		if s == up {
			return s, nil
		}
	}
	return "", fmt.Errorf("unknown scheme %q (want one of %v)", name, Schemes())
}

// Proposed lists the paper's three Broad-strategy contributions.
func Proposed() []Scheme { return []Scheme{PAE, FAE, ALL} }

// Mapper transforms physical addresses before they reach the memory
// subsystem. Implementations must be bijections. The zero Mapper maps
// every address to itself.
type Mapper struct {
	scheme Scheme
	layout layout.Layout
	matrix bim.Matrix
	table  bim.Table // matrix compiled once, for Map and MapBatch
}

// newMapper is every constructor's last step: it compiles m.
func newMapper(s Scheme, l layout.Layout, m bim.Matrix) Mapper {
	return Mapper{scheme: s, layout: l, matrix: m, table: m.Table()}
}

// Scheme returns the scheme this mapper implements.
func (m Mapper) Scheme() Scheme { return m.scheme }

// Layout returns the address layout the mapper targets.
func (m Mapper) Layout() layout.Layout { return m.layout }

// Matrix returns the underlying BIM.
func (m Mapper) Matrix() bim.Matrix { return m.matrix }

// Map transforms one address through the compiled matrix (bim.Table),
// with exactly bim.Matrix.Apply's result. Block-offset bits are never
// altered by any scheme in this package.
func (m Mapper) Map(addr uint64) uint64 { return m.table.Apply(addr) }

// MapBatch transforms a batch of addresses in place, equivalent to
// calling Map on each element but without the per-address call; it is
// what the streaming profiler's StreamOptions.BatchTransform receives.
func (m Mapper) MapBatch(addrs []uint64) { m.table.ApplyBatch(addrs) }

// GateCost reports the XOR-tree cost of the mapper's hardware (Figure 7).
func (m Mapper) GateCost() (gates, depth int) { return m.matrix.GateCost() }

func (m Mapper) String() string {
	g, d := m.GateCost()
	return fmt.Sprintf("%s on %s (xor gates=%d, depth=%d)", m.scheme, m.layout.Name, g, d)
}

// targetBits returns the output bits each scheme regenerates: the channel
// and bank selection bits, plus vault bits on 3D-stacked layouts (the
// paper randomizes 2 channel + 4 vault + 4 bank bits there).
func targetBits(l layout.Layout) []int {
	mask := l.MaskOf(layout.Channel, layout.Bank, layout.Vault)
	return layout.Bits0(mask)
}

// NewBASE returns the baseline mapper: the layout's own address map,
// i.e. the identity BIM.
func NewBASE(l layout.Layout) Mapper {
	return newMapper(BASE, l, bim.Identity(l.Bits))
}

// NewPM builds the permutation-based mapping of Figure 8 (Zhang et al.
// MICRO'00 as extended to channels by Chatterjee et al. SC'14): each
// channel/bank/vault bit is XORed with one of the least-significant row
// bits. Rows of the BIM therefore have exactly two ones (Figure 6c).
func NewPM(l layout.Layout) Mapper {
	m := bim.Identity(l.Bits)
	rowBits := l.FieldBits(layout.Row)
	for i, tb := range targetBits(l) {
		r := rowBits[i%len(rowBits)]
		m = m.SetRow(tb, 1<<uint(tb)|1<<uint(r))
	}
	if !m.Invertible() {
		panic("mapping: PM matrix must be invertible")
	}
	return newMapper(PM, l, m)
}

// NewRMP builds the Remap scheme: the bits with the highest average
// entropy across the benchmark suite are permuted into the channel/bank
// (and vault) positions, displacing the bits that lived there (Figure 6b).
// avgEntropy[i] is the suite-average entropy of physical address bit i;
// block bits are never candidates. If avgEntropy is nil, DefaultRMPBits
// is used (the paper's selection: bits 8–11, 15 and 16).
func NewRMP(l layout.Layout, avgEntropy []float64) Mapper {
	targets := targetBits(l)
	var chosen []int
	if avgEntropy == nil {
		chosen = DefaultRMPBits(l)
	} else {
		if len(avgEntropy) < l.Bits {
			panic("mapping: entropy profile shorter than address width")
		}
		cands := layout.Bits0(l.NonBlockMask())
		sort.SliceStable(cands, func(i, j int) bool {
			return avgEntropy[cands[i]] > avgEntropy[cands[j]]
		})
		chosen = append(chosen, cands[:len(targets)]...)
		sort.Ints(chosen)
	}
	if len(chosen) != len(targets) {
		panic(fmt.Sprintf("mapping: RMP needs %d source bits, got %d", len(targets), len(chosen)))
	}
	return newMapper(RMP, l, permutationSwapping(l.Bits, targets, chosen))
}

// DefaultRMPBits returns the paper's RMP source-bit choice for the Hynix
// layout — the six highest suite-average-entropy bits: 8, 9, 10, 11, 15
// and 16 (Section IV-B). For other layouts it falls back to the lowest
// non-block bits.
func DefaultRMPBits(l layout.Layout) []int {
	if l.Name == "hynix-gddr5" {
		return []int{8, 9, 10, 11, 15, 16}
	}
	nb := layout.Bits0(l.NonBlockMask())
	n := len(targetBits(l))
	return append([]int(nil), nb[:n]...)
}

// permutationSwapping builds a bit permutation that routes each source bit
// to the corresponding target position, and sends displaced target bits to
// the vacated source positions, leaving everything else untouched.
func permutationSwapping(n int, targets, sources []int) bim.Matrix {
	perm := make([]int, n) // perm[out] = in
	for i := range perm {
		perm[i] = i
	}
	for i, tb := range targets {
		sb := sources[i]
		// Find where tb's original content currently routes from, and swap.
		perm[tb], perm[sb] = perm[sb], perm[tb]
	}
	rows := make([]uint64, n)
	for out, in := range perm {
		rows[out] = 1 << uint(in)
	}
	m := bim.New(n, rows)
	if !m.Invertible() {
		panic("mapping: permutation must be invertible")
	}
	return m
}

// NewPAE builds the Page Address Entropy scheme: each channel/bank (and
// vault) output bit is a random XOR combination of the DRAM page-address
// bits — row, bank, channel (and vault) — of the input (Figure 9). Column
// and block bits pass through untouched, preserving row-buffer locality.
func NewPAE(l layout.Layout, seed int64) Mapper {
	rng := rand.New(rand.NewSource(seed))
	m := bim.RandomConstrained(rng, l.Bits, targetBits(l), l.PageMask())
	return newMapper(PAE, l, m)
}

// NewFAE builds the Full Address Entropy scheme: like PAE but the input
// set additionally includes the column bits, i.e. the whole non-block
// address. Only channel/bank (and vault) outputs change.
func NewFAE(l layout.Layout, seed int64) Mapper {
	rng := rand.New(rand.NewSource(seed))
	m := bim.RandomConstrained(rng, l.Bits, targetBits(l), l.NonBlockMask())
	return newMapper(FAE, l, m)
}

// NewALL builds the ALL scheme: every non-block output bit (row, column,
// channel, bank, vault) is regenerated from the full non-block input
// address.
func NewALL(l layout.Layout, seed int64) Mapper {
	rng := rand.New(rand.NewSource(seed))
	outs := layout.Bits0(l.NonBlockMask())
	m := bim.RandomConstrained(rng, l.Bits, outs, l.NonBlockMask())
	return newMapper(ALL, l, m)
}

// NewCustom wraps a user-supplied BIM as a mapper, for design-space
// exploration outside the six packaged schemes. The matrix must be
// invertible and must leave the layout's block bits untouched, since
// block offsets have no effect on the DRAM system (Section III-B) and
// remapping them would break transaction alignment.
func NewCustom(name Scheme, l layout.Layout, m bim.Matrix) (Mapper, error) {
	if m.N() != l.Bits {
		return Mapper{}, fmt.Errorf("mapping: matrix is %d bits, layout %s is %d", m.N(), l.Name, l.Bits)
	}
	if !m.Invertible() {
		return Mapper{}, fmt.Errorf("mapping: custom matrix for %q is singular", name)
	}
	for _, b := range l.FieldBits(layout.Block) {
		if m.Row(b) != 1<<uint(b) {
			return Mapper{}, fmt.Errorf("mapping: custom matrix for %q remaps block bit %d", name, b)
		}
	}
	return newMapper(name, l, m), nil
}

// NewBroadCustom generates a Broad-strategy mapper whose regenerated
// channel/bank (and vault) bits draw from an arbitrary input-bit mask —
// the knob behind the input-breadth ablation: narrow masks degenerate
// toward PM, the page mask gives PAE, the full non-block mask gives FAE.
func NewBroadCustom(name Scheme, l layout.Layout, inMask uint64, seed int64) Mapper {
	rng := rand.New(rand.NewSource(seed))
	m := bim.RandomConstrained(rng, l.Bits, targetBits(l), inMask)
	return newMapper(name, l, m)
}

// Options configures New for schemes that need extra inputs.
type Options struct {
	// Seed selects the random BIM instance for PAE/FAE/ALL. The paper
	// generates three random BIMs per scheme and reports the best; seeds
	// 1, 2, 3 correspond to BIM-1..BIM-3 in Figure 19.
	Seed int64
	// AvgEntropy optionally drives RMP bit selection; nil uses the
	// paper's default bits.
	AvgEntropy []float64
}

// New constructs a mapper for the named scheme.
func New(s Scheme, l layout.Layout, opt Options) (Mapper, error) {
	switch s {
	case BASE:
		return NewBASE(l), nil
	case PM:
		return NewPM(l), nil
	case RMP:
		return NewRMP(l, opt.AvgEntropy), nil
	case PAE:
		return NewPAE(l, opt.Seed), nil
	case FAE:
		return NewFAE(l, opt.Seed), nil
	case ALL:
		return NewALL(l, opt.Seed), nil
	default:
		return Mapper{}, fmt.Errorf("mapping: unknown scheme %q", s)
	}
}

// MustNew is New but panics on error.
func MustNew(s Scheme, l layout.Layout, opt Options) Mapper {
	m, err := New(s, l, opt)
	if err != nil {
		panic(err)
	}
	return m
}
