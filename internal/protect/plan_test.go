package protect

import (
	"math/rand"
	"testing"

	"cppc/internal/bitops"
	"cppc/internal/cache"
	"cppc/internal/core"
)

// TestPortPlanning pins what the timing core books before each access:
// whether a store waits for a read-before-write and how many read-port
// slots it takes, and the victim read a load miss adds. On testCache()
// addresses 0x400 apart share a set, so filling 0x400 and 0x800 leaves
// 0x0 a miss over a valid victim.
func TestPortPlanning(t *testing.T) {
	type plan struct {
		wait  bool
		words int
		load  int // PlanLoadVictimRead
	}
	cases := []struct {
		name  string
		setup func(ct *Controller)
	}{
		{"clean hit", func(ct *Controller) { ct.Load(0x0, 1) }},
		{"dirty hit", func(ct *Controller) { ct.Store(0x0, 7, 1) }},
		{"miss, valid victim", func(ct *Controller) { ct.Load(0x400, 1); ct.Load(0x800, 2) }},
		{"miss, invalid victim", func(ct *Controller) {}},
	}
	schemes := []struct {
		name string
		mk   func(*cache.Cache) Scheme
		want []plan // one per case
	}{
		{"parity-1d", func(c *cache.Cache) Scheme { return NewParity1D(c, 8) },
			[]plan{{false, 0, 0}, {false, 0, 0}, {false, 0, 0}, {false, 0, 0}}},
		{"secded", func(c *cache.Cache) Scheme { return NewSECDED(c, true) },
			[]plan{{false, 0, 0}, {false, 0, 0}, {false, 0, 0}, {false, 0, 0}}},
		{"parity-2d", func(c *cache.Cache) Scheme { return NewTwoDim(c, 8) },
			[]plan{{true, 1, 0}, {true, 1, 0}, {true, 2, 1}, {true, 1, 0}}},
		{"cppc", func(c *cache.Cache) Scheme { return MustCPPC(c, core.DefaultL1Config()) },
			[]plan{{false, 0, 0}, {false, 1, 0}, {false, 0, 0}, {false, 0, 0}}},
	}
	for _, s := range schemes {
		for i, tc := range cases {
			c := testCache()
			ct := NewController(c, s.mk(c), cache.NewMemory(32, 100))
			tc.setup(ct)
			var got plan
			got.wait, got.words = ct.PlanStoreRBW(0x0)
			got.load = ct.PlanLoadVictimRead(0x0)
			if got != s.want[i] {
				t.Errorf("%s, %s: planned %+v, want %+v", s.name, tc.name, got, s.want[i])
			}
		}
	}
}

// TestLineVerifierContract holds every parity scheme's one-pass line
// check to its contract at every degree, on word and block granules:
// VerifyLineClean is true exactly when each granule's stored check word
// equals the interleaved parity of its data.
func TestLineVerifierContract(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, gw := range []int{1, 4} {
		for _, degree := range []int{1, 2, 4, 8} {
			for _, mk := range []func(*cache.Cache) Scheme{
				func(c *cache.Cache) Scheme { return NewParity1D(c, degree) },
				func(c *cache.Cache) Scheme { return NewTwoDim(c, degree) },
				func(c *cache.Cache) Scheme {
					return MustCPPC(c, core.Config{ParityDegree: degree, RegisterPairs: 1, ByteShifting: true})
				},
			} {
				c := testCacheGranule(gw)
				sch := mk(c)
				lv, ok := sch.(LineVerifier)
				if !ok {
					t.Errorf("%s (%d-word granules) does not implement LineVerifier", sch.Name(), gw)
					continue
				}
				ct := NewController(c, sch, cache.NewMemory(32, 100))
				for now := uint64(1); now <= 300; now++ {
					addr := uint64(rng.Intn(2*accessFootprint)) &^ 7
					if rng.Intn(2) == 0 {
						ct.Load(addr, now)
					} else {
						ct.Store(addr, rng.Uint64(), now)
					}
				}
				for trial := 0; trial < 300; trial++ {
					set, way := rng.Intn(c.Sets()), rng.Intn(c.Ways())
					ln := c.Line(set, way)
					if !ln.Valid {
						continue
					}
					switch rng.Intn(3) {
					case 1:
						ln.Data[rng.Intn(len(ln.Data))] ^= 1 << rng.Intn(64)
					case 2:
						ln.Check[rng.Intn(c.Granules())*gw] ^= 1 << rng.Intn(degree)
					}
					want := true
					for g := 0; g < c.Granules(); g++ {
						want = want && ln.Check[g*gw] == bitops.FoldLineParity(ln.Data[g*gw:(g+1)*gw], degree)
					}
					if got := lv.VerifyLineClean(set, way); got != want {
						t.Fatalf("%s (%d-word granules), line (%d, %d): VerifyLineClean = %v, check words say %v",
							sch.Name(), gw, set, way, got, want)
					}
				}
			}
		}
	}
}
