package bim

import (
	"math/rand"
	"testing"
)

// TestApplyBatchMatchesApply: ApplyBatch, Table.Apply and
// Table.ApplyBatch must be element-wise identical to Apply, the
// reference, for random invertible matrices, including bits above the
// matrix dimension.
func TestApplyBatchMatchesApply(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 8, 30, 64} {
		outBits := make([]int, n/2)
		for i := range outBits {
			outBits[i] = i * 2 % n
		}
		m := RandomConstrained(rng, n, outBits, dimMask(n))
		tab := m.Table()
		addrs := make([]uint64, 257)
		want := make([]uint64, len(addrs))
		for i := range addrs {
			addrs[i] = rng.Uint64()
			want[i] = m.Apply(addrs[i])
			if got := tab.Apply(addrs[i]); got != want[i] {
				t.Fatalf("n=%d: Table.Apply(%#x) = %#x, Apply = %#x", n, addrs[i], got, want[i])
			}
		}
		viaTable := append([]uint64(nil), addrs...)
		tab.ApplyBatch(viaTable)
		m.ApplyBatch(addrs)
		for i := range addrs {
			if addrs[i] != want[i] {
				t.Fatalf("n=%d: ApplyBatch[%d] = %#x, Apply = %#x", n, i, addrs[i], want[i])
			}
			if viaTable[i] != want[i] {
				t.Fatalf("n=%d: Table.ApplyBatch[%d] = %#x, Apply = %#x", n, i, viaTable[i], want[i])
			}
		}
	}
	// Empty batches are a no-op.
	Identity(8).ApplyBatch(nil)
	Identity(8).Table().ApplyBatch(nil)
}

// BenchmarkApplyVsApplyBatch compares the three ways to map a batch on
// the 30-bit Hynix-sized matrix the profiling hot path uses: looping
// Apply (30 popcounts per address plus a call), Matrix.ApplyBatch (the
// same popcounts with the row masks hoisted out of the loop) and
// Table.ApplyBatch (four byte-indexed lookups per address, what
// mapping.Mapper uses). Every variant does the transform hook's real
// job — map a batch and keep the results.
func BenchmarkApplyVsApplyBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := RandomConstrained(rng, 30, []int{8, 9, 10, 11, 12, 13}, dimMask(30))
	tab := m.Table()
	const batch = 4096
	addrs := make([]uint64, batch)
	for i := range addrs {
		addrs[i] = rng.Uint64() & dimMask(30)
	}

	b.Run("looped-Apply", func(b *testing.B) {
		b.SetBytes(batch * 8)
		for i := 0; i < b.N; i++ {
			for k, a := range addrs {
				addrs[k] = m.Apply(a)
			}
		}
	})
	b.Run("ApplyBatch", func(b *testing.B) {
		b.SetBytes(batch * 8)
		for i := 0; i < b.N; i++ {
			m.ApplyBatch(addrs)
		}
	})
	b.Run("Table", func(b *testing.B) {
		b.SetBytes(batch * 8)
		for i := 0; i < b.N; i++ {
			tab.ApplyBatch(addrs)
		}
	})
}
