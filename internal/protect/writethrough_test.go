package protect

import (
	"math/rand"
	"testing"

	"cppc/internal/cache"
	"cppc/internal/core"
)

func TestWriteThroughNeverDirty(t *testing.T) {
	c := testCache()
	mem := cache.NewMemory(32, 100)
	ct := NewController(c, NewParity1D(c, 8), mem)
	ct.SetWriteThrough(true)
	rng := rand.New(rand.NewSource(7))
	var now uint64
	golden := map[uint64]uint64{}
	for i := 0; i < 2000; i++ {
		now++
		addr := uint64(rng.Intn(256)) * 8
		v := rng.Uint64()
		golden[addr] = v
		ct.Store(addr, v, now)
		if c.DirtyGranuleCount() != 0 {
			t.Fatal("write-through cache accumulated dirty data")
		}
	}
	// Every store is already in memory — no flush needed.
	for addr, v := range golden {
		if got := mem.ReadWord(addr); got != v {
			t.Fatalf("memory %#x = %#x, want %#x", addr, got, v)
		}
	}
}

// TestWriteThroughSubWordStores: a sub-word store is a store like any
// other, so on a write-through level it too reaches memory at once and
// leaves nothing dirty — under plain parity and under CPPC alike.
func TestWriteThroughSubWordStores(t *testing.T) {
	for _, mk := range []func(*cache.Cache) Scheme{
		func(c *cache.Cache) Scheme { return NewParity1D(c, 8) },
		func(c *cache.Cache) Scheme { return MustCPPC(c, core.DefaultL1Config()) },
	} {
		c := testCache()
		mem := cache.NewMemory(32, 100)
		ct := NewController(c, mk(c), mem)
		ct.SetWriteThrough(true)
		name := ct.Scheme.Name()
		var now uint64
		want := uint64(0x1122_3344_5566_7788)
		now++
		ct.Store(0x40, want, now)
		for _, size := range []int{1, 2, 4, 8} {
			for off := 0; off < 8; off += size {
				now++
				val := now * 0x0101_0101_0101_0101
				shift := uint(off * 8)
				mask := (uint64(1)<<(uint(size)*8) - 1) << shift
				want = want&^mask | val<<shift&mask
				ct.StoreSub(0x40+uint64(off), val, size, now)
				if n := c.DirtyGranuleCount(); n != 0 {
					t.Fatalf("%v: %d-byte store at +%d left %d dirty granules", name, size, off, n)
				}
				if got := mem.ReadWord(0x40); got != want {
					t.Fatalf("%v: %d-byte store at +%d: memory holds %#x, want %#x", name, size, off, got, want)
				}
			}
		}
		if got := ct.Load(0x40, now+1).Value; got != want {
			t.Fatalf("%v: cache holds %#x, want %#x", name, got, want)
		}
	}
}

// TestWriteThroughParityFullyProtects is the paper's Sec. 1 observation:
// with write-through, plain parity recovers *every* fault, because every
// word has a backup below.
func TestWriteThroughParityFullyProtects(t *testing.T) {
	c := testCache()
	mem := cache.NewMemory(32, 100)
	ct := NewController(c, NewParity1D(c, 8), mem)
	ct.SetWriteThrough(true)
	rng := rand.New(rand.NewSource(9))
	var now uint64
	golden := map[uint64]uint64{}
	for i := 0; i < 1000; i++ {
		now++
		addr := uint64(rng.Intn(256)) * 8
		v := rng.Uint64()
		golden[addr] = v
		ct.Store(addr, v, now)
	}
	// Strike 20 random resident words; all must recover by refetch.
	struck := 0
	c.ForEachValid(func(set, way int, ln *cache.Line) {
		if struck < 20 {
			c.FlipBits(set, way, struck%4, 1<<uint(rng.Intn(64)))
			struck++
		}
	})
	for addr, v := range golden {
		now++
		res := ct.Load(addr, now)
		if res.Value != v {
			t.Fatalf("load %#x = %#x, want %#x", addr, res.Value, v)
		}
		if ct.Halted {
			t.Fatal("write-through parity cache halted — nothing should be fatal")
		}
	}
	if ct.Stats.UnrecoverableDUE != 0 {
		t.Fatalf("DUEs in a write-through parity cache: %+v", ct.Stats)
	}
}

// The contrast: the same strikes against a write-back parity cache kill
// the program (the paper's motivation).
func TestWriteBackParityDiesWhereWriteThroughSurvives(t *testing.T) {
	c := testCache()
	ct := NewController(c, NewParity1D(c, 8), cache.NewMemory(32, 100))
	ct.Store(0x40, 0xdead, 1)
	flipData(ct, 0x40, 1<<5)
	if res := ct.Load(0x40, 2); res.Fault != FaultDUE {
		t.Fatalf("write-back dirty fault = %v, want DUE", res.Fault)
	}
}
