package trace

import (
	"testing"

	"cppc/internal/lfrng"
)

// TestCoreGenMatchesStream pins CoreGen's construction: the base stream
// drawn in batches with the coin applied on read must equal the
// reference (a plain Gen drawn per instruction with the coin
// interleaved), for sharing fractions on both sides of the coin.
func TestCoreGenMatchesStream(t *testing.T) {
	p, ok := ProfileByName("gcc")
	if !ok {
		t.Fatal("gcc profile missing")
	}
	for _, frac := range []float64{0, 0.3, 1} {
		gens := p.NewCoreGens(3, frac, 5)
		stride := coreStride(p.WorkingSetBytes + p.StoreBytes)
		for i, g := range gens {
			s := int64(5) + int64(i)*0x9e3779b9
			base := p.NewGen(s)
			var coin lfrng.Rand
			coin.Seed(s ^ 0x5deece66d)

			const n = 700
			got := make([]Instr, n)
			for j := range got[:16] {
				got[j] = g.Next() // Next must flip the coin too
			}
			g.NextBatch(got[16:])
			for j := 0; j < n; j++ {
				want := base.Next()
				if want.Op == OpLoad || want.Op == OpStore {
					if coin.Float64() >= frac {
						want.Addr += uint64(i+1) * stride
					}
				}
				if got[j] != want {
					t.Fatalf("frac %v core %d instr %d = %+v, want %+v", frac, i, j, got[j], want)
				}
			}
		}
	}
}
