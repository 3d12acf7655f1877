package protect

import (
	"fmt"
	"math/rand"
	"testing"

	"cppc/internal/cache"
	"cppc/internal/core"
)

// accessFootprint is the byte range the access-path fuzz target touches:
// twice testCache()'s capacity, so demand misses evict dirty victims.
const accessFootprint = 4096

// accessMode is one configuration the access-path check runs.
type accessMode struct {
	name         string
	granuleWords int
	writeThrough bool
	mk           func(*cache.Cache) Scheme
}

// accessModes lists every scheme shape the shared parity code serves,
// under both write policies on a word-granule (L1) and a block-granule
// (L2) cache: parity-1d and parity-2d at every degree, CPPC at every
// degree, pair count and byte-shifting setting, SECDED, and silent-store
// CPPC. The evaluated degree, 8, comes first.
var accessModes = func() []accessMode {
	type scheme struct {
		name string
		mk   func(*cache.Cache) Scheme
	}
	var schemes []scheme
	for _, d := range []int{8, 4, 2, 1} {
		schemes = append(schemes,
			scheme{fmt.Sprintf("parity-1d/d%d", d), func(c *cache.Cache) Scheme { return NewParity1D(c, d) }},
			scheme{fmt.Sprintf("parity-2d/d%d", d), func(c *cache.Cache) Scheme { return NewTwoDim(c, d) }})
		for _, pairs := range []int{1, 2, 4, 8} {
			for _, shift := range []bool{true, false} {
				cfg := core.Config{ParityDegree: d, RegisterPairs: pairs, ByteShifting: shift}
				schemes = append(schemes, scheme{fmt.Sprintf("cppc/d%d/p%d/shift=%v", d, pairs, shift),
					func(c *cache.Cache) Scheme { return MustCPPC(c, cfg) }})
			}
		}
	}
	schemes = append(schemes,
		scheme{"secded", func(c *cache.Cache) Scheme { return NewSECDED(c, true) }},
		scheme{"cppc-silent", func(c *cache.Cache) Scheme { return MustCPPC(c, core.SilentL1Config()) }})
	var modes []accessMode
	for _, gw := range []int{1, 4} {
		for _, wt := range []bool{false, true} {
			for _, s := range schemes {
				name := fmt.Sprintf("%s gw=%d wt=%v", s.name, gw, wt)
				modes = append(modes, accessMode{name, gw, wt, s.mk})
			}
		}
	}
	return modes
}()

// checkAccessPath runs one controller over a sequence of accesses and
// holds it against a map of stored values. data[0] picks the mode from
// accessModes (modulo their count); every following 4-byte group is one
// operation:
//
//	op      : op%5 is Load, Store, StoreSub, FlushBlock, InvalidateBlock;
//	          (op/5)%4 picks the StoreSub size 1, 2, 4 or 8
//	lo, hi  : byte address (lo | hi<<8) % accessFootprint
//	val     : the stored value's seed
//
// Every load must return the last stored value without a fault, CPPC's
// R1^R2 invariant must hold after every operation, a write-through level
// must never hold dirty data, and after a Flush memory must equal the
// map.
func checkAccessPath(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	mode := accessModes[int(data[0])%len(accessModes)]
	c := testCacheGranule(mode.granuleWords)
	mem := cache.NewMemory(32, 100)
	sch := mode.mk(c)
	var eng *core.Engine
	if s, ok := sch.(*CPPCScheme); ok {
		eng = s.Engine
	}
	ct := NewController(c, sch, mem)
	ct.SetWriteThrough(mode.writeThrough)

	want := map[uint64]uint64{} // word address -> value; absent words are 0
	var now uint64
	ops := data[1:]
	for len(ops) >= 4 {
		op, lo, hi, seed := ops[0], ops[1], ops[2], ops[3]
		ops = ops[4:]
		now++
		addr := (uint64(lo) | uint64(hi)<<8) % accessFootprint
		wordAddr := addr &^ 7
		val := uint64(seed)*0x0101_0101_0101_0101 ^ wordAddr*0x9e37_79b9
		switch op % 5 {
		case 0:
			res := ct.Load(wordAddr, now)
			if res.Value != want[wordAddr] || res.Fault != FaultNone {
				t.Fatalf("%s op %d: load %#x = %#x (%v), want %#x",
					mode.name, now, wordAddr, res.Value, res.Fault, want[wordAddr])
			}
		case 1:
			ct.Store(wordAddr, val, now)
			want[wordAddr] = val
		case 2:
			size := 1 << (op / 5 % 4)
			addr &^= uint64(size - 1)
			ct.StoreSub(addr, val, size, now)
			w := want[wordAddr]
			for i := 0; i < size; i++ {
				sh := 8 * (addr&7 + uint64(i))
				w = w&^(0xff<<sh) | (val>>(8*i)&0xff)<<sh
			}
			want[wordAddr] = w
		case 3:
			ct.FlushBlock(addr, now)
		case 4:
			ct.InvalidateBlock(addr, now)
		}
		if ct.Halted {
			t.Fatalf("%s op %d: level halted without any fault", mode.name, now)
		}
		if eng != nil {
			if err := eng.CheckInvariant(); err != nil {
				t.Fatalf("%s op %d: %v", mode.name, now, err)
			}
		}
		if n := c.DirtyGranuleCount(); mode.writeThrough && n != 0 {
			t.Fatalf("%s op %d: write-through level holds %d dirty granules", mode.name, now, n)
		}
	}
	ct.Flush(now + 1)
	for a := uint64(0); a < accessFootprint; a += 8 {
		if got := mem.ReadWord(a); got != want[a] {
			t.Fatalf("%s: after Flush memory %#x = %#x, want %#x", mode.name, a, got, want[a])
		}
	}
}

// TestControllerAccessPathRandom replays one long random operation
// sequence per accessModes entry through checkAccessPath.
func TestControllerAccessPathRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for mode := range accessModes {
		data := make([]byte, 1+4*2000)
		rng.Read(data)
		data[0] = byte(mode)
		checkAccessPath(t, data)
	}
}

// FuzzControllerAccessPath is the differential check of the protected
// access path against a map of stored values (see checkAccessPath). The
// seed corpus is one random 32-operation sequence per accessModes entry;
// short seeds keep the fuzzer's minimization of each new input, which
// re-runs it once per candidate cut, within a smoke run's budget.
func FuzzControllerAccessPath(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for mode := range accessModes {
		data := make([]byte, 1+4*32)
		rng.Read(data)
		data[0] = byte(mode)
		f.Add(data)
	}
	f.Fuzz(checkAccessPath)
}
