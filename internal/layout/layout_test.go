package layout

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHynixGeometry(t *testing.T) {
	l := HynixGDDR5()
	if l.Bits != 30 {
		t.Fatalf("bits = %d", l.Bits)
	}
	if l.Capacity() != 1<<30 {
		t.Errorf("capacity = %d, want 1GB", l.Capacity())
	}
	if l.Channels() != 4 {
		t.Errorf("channels = %d, want 4", l.Channels())
	}
	if l.BanksPerChannel() != 16 {
		t.Errorf("banks/channel = %d, want 16", l.BanksPerChannel())
	}
	if l.RowsPerBank() != 4096 {
		t.Errorf("rows/bank = %d, want 4096", l.RowsPerBank())
	}
	if l.ColumnsPerRow() != 64 {
		t.Errorf("cols/row = %d, want 64", l.ColumnsPerRow())
	}
	if l.BlockBytes() != 64 {
		t.Errorf("block = %d, want 64", l.BlockBytes())
	}
}

func TestHynixMasks(t *testing.T) {
	l := HynixGDDR5()
	if m := l.Mask(Channel); m != 0x300 {
		t.Errorf("channel mask = %#x, want 0x300 (bits 8-9)", m)
	}
	if m := l.Mask(Bank); m != 0x3C00 {
		t.Errorf("bank mask = %#x, want 0x3C00 (bits 10-13)", m)
	}
	if m := l.Mask(Row); m != 0x3FFC0000 {
		t.Errorf("row mask = %#x", m)
	}
	if m := l.Mask(Column); m != 0x3C0C0 {
		t.Errorf("column mask = %#x, want split 7:6 + 17:14", m)
	}
	if m := l.PageMask(); m != 0x3FFC3F00 {
		t.Errorf("page mask = %#x, want row|bank|channel", m)
	}
	if m := l.NonBlockMask(); m != 0x3FFFFFC0 {
		t.Errorf("non-block mask = %#x", m)
	}
	// Masks partition the address space.
	all := l.Mask(Block) | l.Mask(Column) | l.Mask(Channel) | l.Mask(Bank) | l.Mask(Row)
	if all != (1<<30)-1 {
		t.Errorf("fields do not tile the address: %#x", all)
	}
}

func TestExtractCompose(t *testing.T) {
	l := HynixGDDR5()
	addr := uint64(0)
	addr |= 0xABC << 18 // row
	addr |= 0x5 << 10   // bank
	addr |= 0x2 << 8    // channel
	addr |= 0x3 << 6    // col low
	addr |= 0x9 << 14   // col high
	addr |= 0x2A        // block
	if got := l.RowOf(addr); got != 0xABC {
		t.Errorf("row = %#x", got)
	}
	if got := l.BankOf(addr); got != 5 {
		t.Errorf("bank = %d", got)
	}
	if got := l.ChannelOf(addr); got != 2 {
		t.Errorf("channel = %d", got)
	}
	// Column is dense: low 2 bits from 7:6, next 4 from 17:14.
	if got := l.ColumnOf(addr); got != 0x9<<2|0x3 {
		t.Errorf("column = %#x, want %#x", got, 0x9<<2|0x3)
	}
	if got := l.Extract(Block, addr); got != 0x2A {
		t.Errorf("block = %#x", got)
	}
}

// Property: Compose is a right inverse of Extract for every field, and
// recomposing all fields reconstructs the address exactly.
func TestExtractComposeRoundTrip(t *testing.T) {
	l := HynixGDDR5()
	fields := []Field{Block, Column, Channel, Bank, Row}
	f := func(a uint32) bool {
		addr := uint64(a) & ((1 << 30) - 1)
		var rebuilt uint64
		for _, fd := range fields {
			v := l.Extract(fd, addr)
			c := l.Compose(fd, v)
			if c&^l.Mask(fd) != 0 {
				return false
			}
			if l.Extract(fd, c) != v {
				return false
			}
			rebuilt |= c
		}
		return rebuilt == addr
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestStacked3D(t *testing.T) {
	l := Stacked3D()
	if l.Channels() != 4 {
		t.Errorf("stacks = %d, want 4", l.Channels())
	}
	if l.Width(Vault) != 4 || l.Width(Bank) != 4 {
		t.Errorf("vault/bank widths = %d/%d, want 4/4", l.Width(Vault), l.Width(Bank))
	}
	// Vault folds into the per-channel bank index.
	if l.BanksPerChannel() != 256 {
		t.Errorf("banks/channel = %d, want 256 (16 vaults x 16 banks)", l.BanksPerChannel())
	}
	addr := uint64(0x7)<<8 | uint64(0x3)<<12
	if got := l.BankGlobal(addr); got != 7<<4|3 {
		t.Errorf("bank global = %d, want %d", got, 7<<4|3)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New("gap", 10, []Segment{{Block, 0, 3}, {Row, 5, 9}}); err == nil {
		t.Error("gap not detected")
	}
	if _, err := New("overlap", 10, []Segment{{Block, 0, 4}, {Row, 4, 9}}); err == nil {
		t.Error("overlap not detected")
	}
	if _, err := New("short", 10, []Segment{{Block, 0, 7}}); err == nil {
		t.Error("short coverage not detected")
	}
	if _, err := New("inverted", 10, []Segment{{Block, 0, 4}, {Row, 9, 5}}); err == nil {
		t.Error("inverted segment not detected")
	}
	if _, err := New("ok", 10, []Segment{{Row, 5, 9}, {Block, 0, 4}}); err != nil {
		t.Errorf("valid layout rejected: %v", err)
	}
}

func TestFieldBits(t *testing.T) {
	l := HynixGDDR5()
	got := l.FieldBits(Column)
	want := []int{6, 7, 14, 15, 16, 17}
	if len(got) != len(want) {
		t.Fatalf("column bits = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("column bits = %v, want %v", got, want)
		}
	}
}

func TestString(t *testing.T) {
	got := HynixGDDR5().String()
	want := "Row[29:18] Column[17:14] Bank[13:10] Channel[9:8] Column[7:6] Block[5:0]"
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if Field(99).String() != "Field(99)" {
		t.Error("unknown field string")
	}
}

// Property: Extract/Compose round-trips on the 3D-stacked layout too,
// including the vault field.
func TestStacked3DRoundTrip(t *testing.T) {
	l := Stacked3D()
	fields := []Field{Block, Channel, Vault, Bank, Column, Row}
	f := func(a uint32) bool {
		addr := uint64(a) & ((1 << 30) - 1)
		var rebuilt uint64
		for _, fd := range fields {
			rebuilt |= l.Compose(fd, l.Extract(fd, addr))
		}
		return rebuilt == addr
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBankGlobalDense(t *testing.T) {
	// Every (vault, bank) pair maps to a distinct dense index below
	// BanksPerChannel.
	l := Stacked3D()
	seen := map[int]bool{}
	for v := uint64(0); v < 16; v++ {
		for b := uint64(0); b < 16; b++ {
			addr := l.Compose(Vault, v) | l.Compose(Bank, b)
			g := l.BankGlobal(addr)
			if g < 0 || g >= l.BanksPerChannel() {
				t.Fatalf("BankGlobal(%d,%d) = %d out of range", v, b, g)
			}
			if seen[g] {
				t.Fatalf("BankGlobal collision at %d", g)
			}
			seen[g] = true
		}
	}
}

// TestDecoderMatchesExtract holds the compiled decoders to their
// reference: on both preset layouts, for every field and for 10k random
// 64-bit addresses, bits above the layout's width included, Decoder(f)
// decodes what Extract(f, ·) extracts and BankDecoder what BankGlobal
// returns.
func TestDecoderMatchesExtract(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 10000)
	for i := range addrs {
		addrs[i] = rng.Uint64()
	}
	addrs[0], addrs[1] = 0, ^uint64(0)
	for _, l := range []Layout{HynixGDDR5(), Stacked3D()} {
		bank := l.BankDecoder()
		for f := Field(0); f < fieldCount; f++ {
			d := l.Decoder(f)
			for _, a := range addrs {
				if got, want := d.Decode(a), int(l.Extract(f, a)); got != want {
					t.Fatalf("%s: Decoder(%v).Decode(%#x) = %#x, Extract = %#x", l.Name, f, a, got, want)
				}
			}
		}
		for _, a := range addrs {
			if got, want := bank.Decode(a), l.BankGlobal(a); got != want {
				t.Fatalf("%s: BankDecoder().Decode(%#x) = %#x, BankGlobal = %#x", l.Name, a, got, want)
			}
		}
	}
}
