// Package layout describes how a flat physical address decomposes into
// DRAM coordinates (channel, bank, row, column, and for 3D-stacked parts,
// stack and vault). It encodes the baseline Hynix GDDR5 address map of the
// paper's Figure 4 and the HMC-style 3D-stacked map of Section VI-D.
package layout

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// Field identifies one dimension of the DRAM coordinate space.
type Field int

// Address fields. Block is the offset within a DRAM burst/LLC line and is
// never remapped (it has no effect on DRAM behavior, Section III-B).
const (
	Block Field = iota
	Column
	Channel
	Bank
	Row
	Vault // 3D-stacked only
	fieldCount
)

var fieldNames = [...]string{"Block", "Column", "Channel", "Bank", "Row", "Vault"}

func (f Field) String() string {
	if f < 0 || int(f) >= len(fieldNames) {
		return fmt.Sprintf("Field(%d)", int(f))
	}
	return fieldNames[f]
}

// Segment is a contiguous run of address bits [Lo, Hi] (inclusive)
// belonging to one field. A field may be split into multiple segments, as
// the column is in the Hynix map.
type Segment struct {
	Field  Field
	Lo, Hi int
}

// Width returns the number of bits in the segment.
func (s Segment) Width() int { return s.Hi - s.Lo + 1 }

// Mask returns the address-bit mask covered by the segment.
func (s Segment) Mask() uint64 {
	return ((uint64(1) << uint(s.Width())) - 1) << uint(s.Lo)
}

// Layout is a complete address map over Bits address bits. Segments must
// tile [0, Bits) exactly, with no gaps or overlaps.
type Layout struct {
	Name     string
	Bits     int
	Segments []Segment
}

// New validates and returns a layout. Segments may be given in any order.
func New(name string, bits int, segs []Segment) (Layout, error) {
	l := Layout{Name: name, Bits: bits, Segments: append([]Segment(nil), segs...)}
	sort.Slice(l.Segments, func(i, j int) bool { return l.Segments[i].Lo < l.Segments[j].Lo })
	next := 0
	for _, s := range l.Segments {
		if s.Lo != next {
			return Layout{}, fmt.Errorf("layout %s: gap or overlap at bit %d (segment %v starts at %d)", name, next, s.Field, s.Lo)
		}
		if s.Hi < s.Lo {
			return Layout{}, fmt.Errorf("layout %s: segment %v has Hi < Lo", name, s.Field)
		}
		next = s.Hi + 1
	}
	if next != bits {
		return Layout{}, fmt.Errorf("layout %s: segments cover %d bits, want %d", name, next, bits)
	}
	return l, nil
}

// MustNew is New but panics on error; for the package presets.
func MustNew(name string, bits int, segs []Segment) Layout {
	l, err := New(name, bits, segs)
	if err != nil {
		panic(err)
	}
	return l
}

// HynixGDDR5 returns the baseline 30-bit (1 GB) Hynix GDDR5 address map of
// Figure 4: 4 channels × 16 banks × 4K rows × 64 columns × 64 B blocks.
//
//	bit: 29....18 17...14 13...10 9..8 7..6 5....0
//	      Row     ColHi   Bank    Ch   ColLo Block
//
// Channel bits are 8–9 and the first bank bit is 10, matching the paper's
// Figure 10 discussion ("entropy valley for channel bits 8–9 and bank bit
// 10").
func HynixGDDR5() Layout {
	return MustNew("hynix-gddr5", 30, []Segment{
		{Block, 0, 5},
		{Column, 6, 7},
		{Channel, 8, 9},
		{Bank, 10, 13},
		{Column, 14, 17},
		{Row, 18, 29},
	})
}

// Stacked3D returns a 30-bit HMC-style 3D-stacked map (Section VI-D):
// 4 stacks (modeled as channels) × 16 vaults × 16 banks, with the paper's
// requirement to randomize 2 channel, 4 vault and 4 bank bits.
//
//	bit: 29....20 19..16 15...12 11...8 7..6 5....0
//	      Row     Column Bank    Vault  Ch   Block
func Stacked3D() Layout {
	return MustNew("3d-stacked", 30, []Segment{
		{Block, 0, 5},
		{Channel, 6, 7},
		{Vault, 8, 11},
		{Bank, 12, 15},
		{Column, 16, 19},
		{Row, 20, 29},
	})
}

// Mask returns the OR of all bit masks belonging to field f.
func (l Layout) Mask(f Field) uint64 {
	var m uint64
	for _, s := range l.Segments {
		if s.Field == f {
			m |= s.Mask()
		}
	}
	return m
}

// MaskOf returns the union mask of several fields.
func (l Layout) MaskOf(fs ...Field) uint64 {
	var m uint64
	for _, f := range fs {
		m |= l.Mask(f)
	}
	return m
}

// PageMask returns the mask of the DRAM page address: every field that
// selects which DRAM page is touched (row, bank, channel, and vault on
// stacked parts). This is the PAE input-bit set.
func (l Layout) PageMask() uint64 {
	return l.MaskOf(Row, Bank, Channel, Vault)
}

// NonBlockMask returns all bits except the block offset — the FAE/ALL
// input-bit set.
func (l Layout) NonBlockMask() uint64 {
	return ((uint64(1) << uint(l.Bits)) - 1) &^ l.Mask(Block)
}

// Bits0 returns the positions of the 1 bits in mask, ascending.
func Bits0(mask uint64) []int {
	out := make([]int, 0, bits.OnesCount64(mask))
	for mask != 0 {
		out = append(out, bits.TrailingZeros64(mask))
		mask &= mask - 1
	}
	return out
}

// FieldBits returns the positions of field f's bits, ascending.
func (l Layout) FieldBits(f Field) []int { return Bits0(l.Mask(f)) }

// Width returns the total bit width of field f.
func (l Layout) Width(f Field) int { return bits.OnesCount64(l.Mask(f)) }

// Extract gathers the bits of field f from addr into a dense integer
// (lowest segment bit becomes bit 0).
func (l Layout) Extract(f Field, addr uint64) uint64 {
	var out uint64
	shift := 0
	for _, s := range l.Segments {
		if s.Field != f {
			continue
		}
		out |= ((addr >> uint(s.Lo)) & ((1 << uint(s.Width())) - 1)) << uint(shift)
		shift += s.Width()
	}
	return out
}

// Compose is the inverse of Extract: it scatters a dense field value into
// its address-bit positions (other bits zero).
func (l Layout) Compose(f Field, val uint64) uint64 {
	var out uint64
	shift := 0
	for _, s := range l.Segments {
		if s.Field != f {
			continue
		}
		out |= ((val >> uint(shift)) & ((1 << uint(s.Width())) - 1)) << uint(s.Lo)
		shift += s.Width()
	}
	return out
}

// Convenience extractors.
func (l Layout) ChannelOf(addr uint64) int { return int(l.Extract(Channel, addr)) }
func (l Layout) BankOf(addr uint64) int    { return int(l.Extract(Bank, addr)) }
func (l Layout) RowOf(addr uint64) int     { return int(l.Extract(Row, addr)) }
func (l Layout) ColumnOf(addr uint64) int  { return int(l.Extract(Column, addr)) }

// Channels, BanksPerChannel, RowsPerBank, ColumnsPerRow report the
// geometry implied by field widths. On stacked layouts, BanksPerChannel
// folds the vault dimension in (vaults × banks), since each vault has an
// independent bank array.
func (l Layout) Channels() int { return 1 << uint(l.Width(Channel)) }
func (l Layout) BanksPerChannel() int {
	return 1 << uint(l.Width(Bank)+l.Width(Vault))
}
func (l Layout) RowsPerBank() int   { return 1 << uint(l.Width(Row)) }
func (l Layout) ColumnsPerRow() int { return 1 << uint(l.Width(Column)) }
func (l Layout) BlockBytes() int    { return 1 << uint(l.Width(Block)) }

// BankGlobal returns a dense per-channel bank index folding vault and bank
// together (vault-major), used by the DRAM model to index bank state.
func (l Layout) BankGlobal(addr uint64) int {
	return int(l.Extract(Vault, addr))<<uint(l.Width(Bank)) | int(l.Extract(Bank, addr))
}

// A Decoder extracts one DRAM coordinate from addresses with shifts
// and masks compiled once from a layout, so a decode visits only the
// coordinate's own segments. Layout.Decoder(f) decodes what Extract(f,
// ·) does and Layout.BankDecoder what BankGlobal does; the DRAM model
// decodes every request's channel, row and bank with them.
type Decoder struct {
	steps []decodeStep
}

// decodeStep moves one segment: width bits of the address from bit lo
// up to bit at of the result, mask being width ones.
type decodeStep struct {
	lo, at uint
	mask   uint64
}

// Decode returns addr's coordinate.
func (d Decoder) Decode(addr uint64) int {
	var out uint64
	for _, s := range d.steps {
		out |= (addr >> s.lo & s.mask) << s.at
	}
	return int(out)
}

// Decoder compiles the decode of field f: Decoder(f).Decode(addr)
// equals Extract(f, addr) for every addr.
func (l Layout) Decoder(f Field) Decoder {
	var d Decoder
	d.add(l, f, 0)
	return d
}

// BankDecoder compiles BankGlobal: BankDecoder().Decode(addr) equals
// BankGlobal(addr) for every addr.
func (l Layout) BankDecoder() Decoder {
	var d Decoder
	d.add(l, Bank, 0)
	d.add(l, Vault, uint(l.Width(Bank)))
	return d
}

// add appends field f's segments, lowest first, packed upwards from
// result bit at.
func (d *Decoder) add(l Layout, f Field, at uint) {
	for _, s := range l.Segments {
		if s.Field == f {
			d.steps = append(d.steps, decodeStep{lo: uint(s.Lo), at: at, mask: 1<<uint(s.Width()) - 1})
			at += uint(s.Width())
		}
	}
}

// Capacity returns the total bytes addressed by the layout.
func (l Layout) Capacity() uint64 { return uint64(1) << uint(l.Bits) }

// String renders the layout MSB-first, e.g.
// "Row[29:18] Column[17:14] Bank[13:10] Channel[9:8] Column[7:6] Block[5:0]".
func (l Layout) String() string {
	var parts []string
	for i := len(l.Segments) - 1; i >= 0; i-- {
		s := l.Segments[i]
		parts = append(parts, fmt.Sprintf("%s[%d:%d]", s.Field, s.Hi, s.Lo))
	}
	return strings.Join(parts, " ")
}
