package mapping

import (
	"math/bits"
	"testing"
	"testing/quick"

	"valleymap/internal/layout"
)

func hynix() layout.Layout { return layout.HynixGDDR5() }

func TestBASEIsIdentity(t *testing.T) {
	m := NewBASE(hynix())
	if !m.Matrix().IsIdentity() {
		t.Fatal("BASE must be the identity BIM")
	}
	for _, a := range []uint64{0, 0x12345678 & 0x3FFFFFFF, 1 << 29} {
		if m.Map(a) != a {
			t.Errorf("BASE changed %#x", a)
		}
	}
	if g, _ := m.GateCost(); g != 0 {
		t.Errorf("BASE gate cost = %d, want 0", g)
	}
}

func TestPMShape(t *testing.T) {
	l := hynix()
	m := NewPM(l)
	if !m.Matrix().Invertible() {
		t.Fatal("PM not invertible")
	}
	targets := map[int]bool{}
	for _, b := range layout.Bits0(l.MaskOf(layout.Channel, layout.Bank)) {
		targets[b] = true
	}
	rowMask := l.Mask(layout.Row)
	for i := 0; i < l.Bits; i++ {
		r := m.Matrix().Row(i)
		if targets[i] {
			// Figure 6c: exactly two ones — itself and one row bit.
			if bits.OnesCount64(r) != 2 {
				t.Errorf("PM row %d has %d ones, want 2", i, bits.OnesCount64(r))
			}
			if r&(1<<uint(i)) == 0 {
				t.Errorf("PM row %d missing its own bit", i)
			}
			if r&^(1<<uint(i))&rowMask == 0 {
				t.Errorf("PM row %d second input not a row bit: %#x", i, r)
			}
		} else if r != 1<<uint(i) {
			t.Errorf("PM row %d should be identity", i)
		}
	}
	// Block and column bits unchanged on arbitrary addresses.
	keep := l.Mask(layout.Block) | l.Mask(layout.Column) | l.Mask(layout.Row)
	for _, a := range []uint64{0x3FFFFFFF, 0x2A2A2A2A & 0x3FFFFFFF} {
		if m.Map(a)&keep != a&keep {
			t.Errorf("PM altered non-target bits of %#x", a)
		}
	}
}

func TestRMPDefault(t *testing.T) {
	l := hynix()
	m := NewRMP(l, nil)
	if !m.Matrix().IsPermutation() {
		t.Fatal("RMP must be a pure bit permutation")
	}
	// Bits 8-11 are already bank/channel targets, so they stay; bits 15
	// and 16 swap with the remaining bank bits 12 and 13.
	got := map[int]uint64{}
	for i := 0; i < l.Bits; i++ {
		got[i] = m.Matrix().Row(i)
	}
	if got[12] != 1<<15 || got[15] != 1<<12 {
		t.Errorf("expected bits 12<->15 swapped: row12=%#x row15=%#x", got[12], got[15])
	}
	if got[13] != 1<<16 || got[16] != 1<<13 {
		t.Errorf("expected bits 13<->16 swapped: row13=%#x row16=%#x", got[13], got[16])
	}
	for _, b := range []int{8, 9, 10, 11} {
		if got[b] != 1<<uint(b) {
			t.Errorf("bit %d should be unchanged, row=%#x", b, got[b])
		}
	}
}

func TestRMPFromProfile(t *testing.T) {
	l := hynix()
	prof := make([]float64, l.Bits)
	// Give highest entropy to bits 20..25 (row bits).
	for i := 20; i <= 25; i++ {
		prof[i] = 1.0
	}
	m := NewRMP(l, prof)
	if !m.Matrix().IsPermutation() {
		t.Fatal("RMP must be a permutation")
	}
	// Each target position must now source one of bits 20..25.
	targets := layout.Bits0(l.MaskOf(layout.Channel, layout.Bank))
	var srcMask uint64
	for _, tb := range targets {
		srcMask |= m.Matrix().Row(tb)
	}
	if srcMask != 0x3F00000 {
		t.Errorf("RMP sources = %#x, want bits 20..25", srcMask)
	}
}

func TestBroadSchemesShape(t *testing.T) {
	l := hynix()
	pae := NewPAE(l, 1)
	fae := NewFAE(l, 1)
	all := NewALL(l, 1)

	pageMask := l.PageMask()
	nonBlock := l.NonBlockMask()
	targets := layout.Bits0(l.MaskOf(layout.Channel, layout.Bank))
	isTarget := map[int]bool{}
	for _, b := range targets {
		isTarget[b] = true
	}

	for i := 0; i < l.Bits; i++ {
		pr, fr, ar := pae.Matrix().Row(i), fae.Matrix().Row(i), all.Matrix().Row(i)
		if isTarget[i] {
			if pr&^pageMask != 0 {
				t.Errorf("PAE row %d uses non-page inputs: %#x", i, pr)
			}
			if fr&^nonBlock != 0 {
				t.Errorf("FAE row %d uses block inputs: %#x", i, fr)
			}
		} else {
			if pr != 1<<uint(i) {
				t.Errorf("PAE row %d must be identity", i)
			}
			if fr != 1<<uint(i) {
				t.Errorf("FAE row %d must be identity", i)
			}
		}
		if ar&^nonBlock != 0 && i >= 6 {
			t.Errorf("ALL row %d uses block inputs: %#x", i, ar)
		}
		if i < 6 { // block rows identity everywhere
			for name, r := range map[string]uint64{"PAE": pr, "FAE": fr, "ALL": ar} {
				if r != 1<<uint(i) {
					t.Errorf("%s block row %d not identity", name, i)
				}
			}
		}
	}
}

func TestSchemesNeverTouchBlockBits(t *testing.T) {
	l := hynix()
	mappers := []Mapper{
		NewBASE(l), NewPM(l), NewRMP(l, nil), NewPAE(l, 3), NewFAE(l, 3), NewALL(l, 3),
	}
	f := func(a uint32) bool {
		addr := uint64(a) & ((1 << 30) - 1)
		for _, m := range mappers {
			if m.Map(addr)&0x3F != addr&0x3F {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: all schemes are bijections (mapped through the inverse BIM
// round-trips).
func TestAllSchemesBijective(t *testing.T) {
	l := hynix()
	for _, s := range Schemes() {
		m := MustNew(s, l, Options{Seed: 2})
		inv, err := m.Matrix().Inverse()
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		for a := uint64(0); a < 1<<14; a += 131 {
			addr := (a*2654435761 + a) & ((1 << 30) - 1)
			if inv.Apply(m.Map(addr)) != addr {
				t.Fatalf("%s not bijective at %#x", s, addr)
			}
		}
	}
}

func TestNewUnknownScheme(t *testing.T) {
	if _, err := New("BOGUS", hynix(), Options{}); err == nil {
		t.Fatal("expected error for unknown scheme")
	}
}

func TestStacked3DTargets(t *testing.T) {
	l := layout.Stacked3D()
	// 2 channel + 4 vault + 4 bank = 10 randomized bits (Section VI-D).
	if got := len(targetBits(l)); got != 10 {
		t.Fatalf("3D target bits = %d, want 10", got)
	}
	pae := NewPAE(l, 1)
	if !pae.Matrix().Invertible() {
		t.Fatal("3D PAE not invertible")
	}
	pm := NewPM(l)
	if !pm.Matrix().Invertible() {
		t.Fatal("3D PM not invertible")
	}
}

func TestSeedsDiffer(t *testing.T) {
	l := hynix()
	if NewPAE(l, 1).Matrix().Equal(NewPAE(l, 2).Matrix()) {
		t.Error("different PAE seeds should give different BIMs")
	}
	if !NewFAE(l, 7).Matrix().Equal(NewFAE(l, 7).Matrix()) {
		t.Error("same FAE seed must reproduce the BIM")
	}
}

func TestGateCostSingleCycle(t *testing.T) {
	// The paper argues one-cycle latency is feasible; sanity-check the
	// XOR tree stays shallow for every scheme on the Hynix layout.
	l := hynix()
	for _, s := range Schemes() {
		m := MustNew(s, l, Options{Seed: 1})
		_, depth := m.GateCost()
		if depth > 5 { // <= ceil(log2(24 inputs)) = 5 levels
			t.Errorf("%s XOR depth = %d, too deep for one cycle", s, depth)
		}
	}
}

func TestString(t *testing.T) {
	s := NewPAE(hynix(), 1).String()
	if s == "" || len(s) < 10 {
		t.Errorf("String() = %q", s)
	}
}

// TestMapBatchMatchesMap: Map and MapBatch, which apply the compiled
// table, agree with the reference bim.Matrix.Apply for every scheme,
// address bits above the layout's 30 included.
func TestMapBatchMatchesMap(t *testing.T) {
	for _, sc := range Schemes() {
		m := MustNew(sc, hynix(), Options{Seed: 2})
		addrs := make([]uint64, 513)
		want := make([]uint64, len(addrs))
		for i := range addrs {
			addrs[i] = uint64(i) * 0x9e3779b97f4a7c15
			if i%2 == 0 {
				addrs[i] &= 1<<30 - 1
			}
			want[i] = m.Matrix().Apply(addrs[i])
			if got := m.Map(addrs[i]); got != want[i] {
				t.Fatalf("%s: Map(%#x) = %#x, Matrix.Apply = %#x", sc, addrs[i], got, want[i])
			}
		}
		m.MapBatch(addrs)
		for i := range addrs {
			if addrs[i] != want[i] {
				t.Fatalf("%s: MapBatch[%d] = %#x, Matrix.Apply = %#x", sc, i, addrs[i], want[i])
			}
		}
	}
}

// TestZeroMapperIsIdentity: a Mapper no constructor built maps every
// address to itself, through Map and MapBatch alike.
func TestZeroMapperIsIdentity(t *testing.T) {
	var m Mapper
	addrs := []uint64{0, 1, 0x3fffffff, 0x12345678, 1 << 40, ^uint64(0)}
	want := append([]uint64(nil), addrs...)
	for _, a := range addrs {
		if got := m.Map(a); got != a {
			t.Errorf("zero Mapper maps %#x to %#x", a, got)
		}
	}
	m.MapBatch(addrs)
	for i := range addrs {
		if addrs[i] != want[i] {
			t.Errorf("zero Mapper's MapBatch maps %#x to %#x", want[i], addrs[i])
		}
	}
}
