package cache

import (
	"fmt"
	"math/rand"
	"testing"
)

// pageCount is how many pages t holds.
func pageCount[T any](t *PageTable[T]) int {
	if t.store == nil {
		return 0
	}
	return len(t.store.pages)
}

// pageTableIndices is the index pool the oracle tests draw from: the
// first and last entries and the middle of pages that share page 0's
// page-pointer cache slot (so lookups keep evicting each other), of
// neighbouring pages, of a far page, and the top of the index space.
// Block transfers starting at the last entries straddle a page boundary,
// and the top of the index space wraps around to page 0.
func pageTableIndices() []uint64 {
	pns := []uint64{0, 1, 2, 1 << 20}
	for pn := uint64(1); len(pns) < 8; pn++ {
		if slotOf(pn) == slotOf(0) {
			pns = append(pns, pn)
		}
	}
	var out []uint64
	for _, pn := range pns {
		base := pn << pageShift
		out = append(out, base, base+1, base+pageSize/2, base+pageSize-5, base+pageSize-1)
	}
	return append(out, ^uint64(0)-6, ^uint64(0))
}

// checkPageTableOps runs an op stream against a PageTable and a map
// oracle. Each op is three bytes: the operation, the index (drawn from
// pageTableIndices) and a value byte. It checks every read against the
// oracle, that reads never create pages, and that the table holds
// exactly one page per page the oracle's written indices fall in.
func checkPageTableOps(t *testing.T, ops []byte) {
	idx := pageTableIndices()
	var tbl PageTable[uint64]
	oracle := map[uint64]uint64{}
	checkPages := func(step int) {
		want := map[uint64]bool{}
		for i := range oracle {
			want[i>>pageShift] = true
		}
		if got := pageCount(&tbl); got != len(want) {
			t.Fatalf("op %d: table holds %d pages, oracle writes span %d", step, got, len(want))
		}
	}
	buf := make([]uint64, 8)
	for step := 0; len(ops) >= 3; step, ops = step+1, ops[3:] {
		op, i := ops[0], idx[int(ops[1])%len(idx)]
		v := uint64(ops[2]) * 0x9e3779b97f4a7c15 // value byte 0 writes zeros
		n := 4 + 4*int(op>>7)                    // block width: 4 or 8 entries
		pages := pageCount(&tbl)
		switch op {
		case 0xff:
			tbl.Reset()
			clear(oracle)
			continue
		case 0xfe:
			tbl.Release()
			clear(oracle)
			continue
		}
		switch op % 5 {
		case 0:
			if got := tbl.Get(i); got != oracle[i] {
				t.Fatalf("op %d: Get(%#x) = %#x, want %#x", step, i, got, oracle[i])
			}
		case 1:
			tbl.Set(i, v)
			oracle[i] = v
		case 2:
			*tbl.Ref(i) = v
			oracle[i] = v
		case 3:
			tbl.Read(i, buf[:n])
			for k := 0; k < n; k++ {
				if want := oracle[i+uint64(k)]; buf[k] != want {
					t.Fatalf("op %d: Read(%#x)[%d] = %#x, want %#x", step, i, k, buf[k], want)
				}
			}
		case 4:
			for k := 0; k < n; k++ {
				buf[k] = v + uint64(k)
				oracle[i+uint64(k)] = buf[k]
			}
			tbl.Write(i, buf[:n])
		}
		if op%5 == 0 || op%5 == 3 {
			if got := pageCount(&tbl); got != pages {
				t.Fatalf("op %d: a read created %d pages", step, got-pages)
			}
		}
		if step%64 == 0 {
			checkPages(step)
		}
	}
	checkPages(-1)
	for i, want := range oracle {
		if got := tbl.Get(i); got != want {
			t.Fatalf("final Get(%#x) = %#x, want %#x", i, got, want)
		}
	}
}

func TestPageTableMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			ops := make([]byte, 3*20000)
			rng.Read(ops)
			checkPageTableOps(t, ops)
		})
	}
}

func FuzzPageTable(f *testing.F) {
	// Opcodes (op%5): 0 Get, 1 Set, 2 Ref, 3 Read, 4 Write; op >= 0x80
	// makes a block transfer 8 entries wide; 0xff Resets, 0xfe Releases.
	// Index 3 is page 0's entry 507, so an 8-wide transfer straddles
	// pages 0 and 1; indices 20-39 sit in pages sharing page 0's
	// page-pointer cache slot; index 40 wraps around to page 0.
	//
	// Set, straddling write, read back, reset, read after reset.
	f.Add([]byte{1, 3, 7, 0x81, 3, 9, 0x80, 3, 0, 0xff, 0, 0, 0x80, 3, 0})
	// Writes of zero in colliding pages, reads across them, release.
	f.Add([]byte{1, 20, 0, 2, 25, 0, 3, 20, 0, 3, 25, 0, 0, 30, 0, 0xfe, 0, 0, 0, 20, 0})
	// A write at the top of the index space wraps around to page 0.
	f.Add([]byte{0x81, 40, 1, 0x80, 40, 0, 0, 0, 0})
	f.Fuzz(checkPageTableOps)
}

// TestPageTableAbsentReadsCreateNothing: reading an absent page returns
// zeros and leaves the table empty.
func TestPageTableAbsentReadsCreateNothing(t *testing.T) {
	var tbl PageTable[uint64]
	dst := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	tbl.Read(pageSize-3, dst)
	for k, w := range dst {
		if w != 0 {
			t.Fatalf("absent entry %d read %#x", k, w)
		}
	}
	if tbl.Get(12345) != 0 || pageCount(&tbl) != 0 {
		t.Fatalf("reads created %d pages", pageCount(&tbl))
	}
	tbl.Set(7, 0)
	if pageCount(&tbl) != 1 {
		t.Fatalf("a write of zero created %d pages, want 1", pageCount(&tbl))
	}
}

// TestPageTableResetRecyclesPages: after Reset, refilling the same
// footprint allocates nothing.
func TestPageTableResetRecyclesPages(t *testing.T) {
	var tbl PageTable[uint64]
	fill := func() {
		for i := uint64(0); i < 8*pageSize; i += 61 {
			tbl.Set(i, i)
		}
	}
	fill()
	if avg := testing.AllocsPerRun(20, func() {
		tbl.Reset()
		fill()
	}); avg != 0 {
		t.Errorf("Reset+refill allocates %.1f objects per run, want 0", avg)
	}
	if tbl.Get(61) != 61 || tbl.Get(62) != 0 {
		t.Fatal("refill lost entries or kept stale ones")
	}
}

// TestMemoryBlockAllocFree: block transfers on resident pages allocate
// nothing.
func TestMemoryBlockAllocFree(t *testing.T) {
	m := NewMemory(32, 200)
	blk := []uint64{1, 2, 3, 4}
	m.WriteBackBlock(0x1000, blk, 0)
	m.WriteBackBlock(0x1fe0, blk, 0)
	if avg := testing.AllocsPerRun(1000, func() {
		m.FetchBlock(0x1000, blk, 0)
		m.WriteBackBlock(0x1fe0, blk, 0)
	}); avg != 0 {
		t.Errorf("FetchBlock+WriteBackBlock allocate %.1f objects per op, want 0", avg)
	}
}

// mapMemory is the per-word hash-map golden memory PageTable replaced:
// the benchmark's baseline.
type mapMemory struct {
	words      map[uint64]uint64
	blockBytes int
}

func (m *mapMemory) FetchBlock(addr uint64, dst []uint64, _ uint64) int {
	base := addr &^ uint64(m.blockBytes-1)
	for i := range dst {
		dst[i] = m.words[base+uint64(i*8)]
	}
	return 0
}

func (m *mapMemory) WriteBackBlock(addr uint64, src []uint64, _ uint64) {
	base := addr &^ uint64(m.blockBytes-1)
	for i, w := range src {
		m.words[base+uint64(i*8)] = w
	}
}

// BenchmarkMemoryBlock times one FetchBlock plus one WriteBackBlock of a
// 32-byte block, over a fault campaign's 8KB footprint and over 1MB,
// with the paged Memory and the per-word map it replaced walking the
// same block sequence.
func BenchmarkMemoryBlock(b *testing.B) {
	for _, footprint := range []int{8 << 10, 1 << 20} {
		rng := rand.New(rand.NewSource(1))
		addrs := make([]uint64, 4096)
		for i := range addrs {
			addrs[i] = uint64(rng.Intn(footprint/32)) * 32
		}
		for _, impl := range []struct {
			name string
			mem  Backing
		}{
			{"paged", NewMemory(32, 0)},
			{"map", &mapMemory{words: map[uint64]uint64{}, blockBytes: 32}},
		} {
			b.Run(fmt.Sprintf("%s/%dKB", impl.name, footprint>>10), func(b *testing.B) {
				blk := make([]uint64, 4)
				for a := 0; a < footprint; a += 32 {
					impl.mem.WriteBackBlock(uint64(a), blk, 0)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					a := addrs[i&(len(addrs)-1)]
					impl.mem.FetchBlock(a, blk, 0)
					blk[0]++
					impl.mem.WriteBackBlock(a, blk, 0)
				}
			})
		}
	}
}
