package protect

import (
	"math/rand"
	"testing"

	"cppc/internal/cache"
	"cppc/internal/core"
)

// accessFootprint is the byte range the access-path fuzz target touches:
// twice testCache()'s capacity, so demand misses evict dirty victims.
const accessFootprint = 4096

// checkAccessPath runs one controller over a sequence of accesses and
// holds it against a map of stored values. data[0] picks the scheme
// (parity-1d, secded, parity-2d, cppc, cppc-silent) and write-back or
// write-through; every following 4-byte group is one operation:
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
	c := testCache()
	mem := cache.NewMemory(32, 100)
	var sch Scheme
	var eng *core.Engine
	switch data[0] % 5 {
	case 0:
		sch = NewParity1D(c, 8)
	case 1:
		sch = NewSECDED(c, true)
	case 2:
		sch = NewTwoDim(c, 8)
	case 3:
		s := MustCPPC(c, core.DefaultL1Config())
		sch, eng = s, s.Engine
	case 4:
		s := MustCPPC(c, core.SilentL1Config())
		sch, eng = s, s.Engine
	}
	ct := NewController(c, sch, mem)
	writeThrough := data[0]/5%2 == 1
	ct.SetWriteThrough(writeThrough)

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
				t.Fatalf("%v wt=%v op %d: load %#x = %#x (%v), want %#x",
					sch.Kind(), writeThrough, now, wordAddr, res.Value, res.Fault, want[wordAddr])
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
			t.Fatalf("%v wt=%v op %d: level halted without any fault", sch.Kind(), writeThrough, now)
		}
		if eng != nil {
			if err := eng.CheckInvariant(); err != nil {
				t.Fatalf("%v wt=%v op %d: %v", sch.Kind(), writeThrough, now, err)
			}
		}
		if n := c.DirtyGranuleCount(); writeThrough && n != 0 {
			t.Fatalf("%v wt=%v op %d: write-through level holds %d dirty granules", sch.Kind(), writeThrough, now, n)
		}
	}
	ct.Flush(now + 1)
	for a := uint64(0); a < accessFootprint; a += 8 {
		if got := mem.ReadWord(a); got != want[a] {
			t.Fatalf("%v wt=%v: after Flush memory %#x = %#x, want %#x", sch.Kind(), writeThrough, a, got, want[a])
		}
	}
}

// TestControllerAccessPathRandom replays one long random operation
// sequence per (scheme, write policy) pair through checkAccessPath.
func TestControllerAccessPathRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for mode := 0; mode < 10; mode++ {
		data := make([]byte, 1+4*2000)
		rng.Read(data)
		data[0] = byte(mode)
		checkAccessPath(t, data)
	}
}

// FuzzControllerAccessPath is the differential check of the protected
// access path against a map of stored values (see checkAccessPath). The
// seed corpus is one random 32-operation sequence per (scheme, write
// policy) pair; short seeds keep the fuzzer's minimization of each new
// input, which re-runs it once per candidate cut, within a smoke run's
// budget.
func FuzzControllerAccessPath(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for mode := 0; mode < 10; mode++ {
		data := make([]byte, 1+4*32)
		rng.Read(data)
		data[0] = byte(mode)
		f.Add(data)
	}
	f.Fuzz(checkAccessPath)
}
