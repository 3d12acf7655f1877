package core

import (
	"math/rand"
	"testing"

	"cppc/internal/cache"
)

func TestConfigValidate(t *testing.T) {
	good := []Config{
		DefaultL1Config(), DefaultL2Config(), FullCorrectionConfig(),
		{ParityDegree: 1, RegisterPairs: 1},
		{ParityDegree: 4, RegisterPairs: 2, ByteShifting: true},
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("config %+v rejected: %v", c, err)
		}
	}
	bad := []Config{
		{ParityDegree: 0, RegisterPairs: 1},
		{ParityDegree: 3, RegisterPairs: 1},
		{ParityDegree: 8, RegisterPairs: 0},
		{ParityDegree: 8, RegisterPairs: 5},
		{ParityDegree: 16, RegisterPairs: 1},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v accepted", c)
		}
	}
}

func TestPairAndRotationMapping(t *testing.T) {
	c := Config{ParityDegree: 8, RegisterPairs: 2, ByteShifting: true}
	// Classes 0-3 on pair 0, classes 4-7 on pair 1 (Sec. 4.6).
	for class := 0; class < 8; class++ {
		wantPair := 0
		if class >= 4 {
			wantPair = 1
		}
		if got := c.PairOf(class); got != wantPair {
			t.Errorf("PairOf(%d) = %d, want %d", class, got, wantPair)
		}
		if got := c.RotationOf(class); got != class {
			t.Errorf("RotationOf(%d) = %d", class, got)
		}
	}
	noShift := Config{ParityDegree: 8, RegisterPairs: 8}
	for class := 0; class < 8; class++ {
		if noShift.RotationOf(class) != 0 {
			t.Errorf("no-shift rotation for class %d nonzero", class)
		}
		if noShift.PairOf(class) != class {
			t.Errorf("8 pairs: PairOf(%d) = %d", class, noShift.PairOf(class))
		}
	}
}

func TestInvariantAfterStores(t *testing.T) {
	h := newHarness(t, DefaultL1Config())
	for i := 0; i < 20; i++ {
		h.store(uint64(i*8), uint64(i)*0x1111111111111111)
		h.mustInvariant()
	}
}

func TestInvariantAfterOverwrites(t *testing.T) {
	h := newHarness(t, DefaultL1Config())
	addr := uint64(0x40)
	h.store(addr, 1)
	h.store(addr, 2) // store to an already-dirty word: R2 absorbs the old value
	h.store(addr, 3)
	h.mustInvariant()
	if got, syn := h.load(addr); got != 3 || syn != 0 {
		t.Fatalf("load = %#x syn %#x", got, syn)
	}
}

func TestInvariantAfterEvictions(t *testing.T) {
	h := newHarness(t, DefaultL1Config())
	// The harness cache has 16 sets; these two addresses collide.
	a := uint64(0x20)
	b := a + uint64(h.c.Cfg.Sets()*h.c.Cfg.BlockBytes)
	h.store(a, 0xaaaa)
	h.store(b, 0xbbbb) // evicts a (dirty): OnEvictBlock folds it into R2
	h.mustInvariant()
	if h.c.DirtyGranuleCount() != 1 {
		t.Fatalf("dirty granules = %d", h.c.DirtyGranuleCount())
	}
	// The write-back reached memory.
	if h.mem.ReadWord(a) != 0xaaaa {
		t.Fatal("write-back lost")
	}
}

// The central invariant (Sec. 3): at any time R1 ^ R2 equals the XOR of
// the rotated images of all dirty granules — under arbitrary interleavings
// of stores, overwrites, loads and evictions, for every configuration.
func TestInvariantRandomOps(t *testing.T) {
	configs := []Config{
		{ParityDegree: 1, RegisterPairs: 1},
		{ParityDegree: 8, RegisterPairs: 1, ByteShifting: true},
		{ParityDegree: 8, RegisterPairs: 2, ByteShifting: true},
		{ParityDegree: 8, RegisterPairs: 4, ByteShifting: true},
		FullCorrectionConfig(),
	}
	for _, cfg := range configs {
		cfg := cfg
		h := newHarness(t, cfg)
		rng := rand.New(rand.NewSource(42))
		for op := 0; op < 2000; op++ {
			// 32 blocks over 16 sets: plenty of conflict misses.
			addr := uint64(rng.Intn(32*4)) * 8
			if rng.Intn(3) == 0 {
				h.load(addr)
			} else {
				h.store(addr, rng.Uint64())
			}
		}
		if err := h.e.CheckInvariant(); err != nil {
			t.Errorf("config %+v: %v", cfg, err)
		}
	}
}

func TestInvariantRandomOpsL2(t *testing.T) {
	h := newL2Harness(t, DefaultL2Config())
	rng := rand.New(rand.NewSource(43))
	vals := make([]uint64, 4)
	for op := 0; op < 1000; op++ {
		addr := uint64(rng.Intn(64)) * 32
		for j := range vals {
			vals[j] = rng.Uint64()
		}
		h.storeBlock(addr, vals)
	}
	h.mustInvariant()
}

func TestScrubRegisters(t *testing.T) {
	h := newHarness(t, DefaultL1Config())
	h.store(0x10, 0x1234)
	h.store(0x48, 0x5678)
	// Corrupt R1 (Sec. 4.9): the invariant breaks, scrubbing restores it.
	h.e.FlipRegisterBits(0, 1, 0, 0xff)
	if err := h.e.CheckInvariant(); err == nil {
		t.Fatal("corrupted register not detected by invariant check")
	}
	h.e.ScrubRegisters()
	h.mustInvariant()
	// And recovery still works after a scrub.
	h.flip(0x10, 1<<5)
	if rep := h.recoverAt(0x10); rep.Outcome != OutcomeCorrected {
		t.Fatalf("post-scrub recovery: %+v", rep)
	}
	if got, _ := h.load(0x10); got != 0x1234 {
		t.Fatalf("post-scrub recovered value %#x", got)
	}
}

func TestFlipRegisterBitsPanics(t *testing.T) {
	h := newHarness(t, DefaultL1Config())
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for invalid register selector")
		}
	}()
	h.e.FlipRegisterBits(0, 3, 0, 1)
}

func TestGranuleParityMatchesWordParity(t *testing.T) {
	h := newL2Harness(t, DefaultL2Config())
	data := []uint64{0xff, 0xff00, 0, 1 << 63}
	// Granule parity is the XOR of per-word interleaved parities.
	var want uint64
	for _, w := range data {
		var p uint64
		for s := 0; s < 8; s++ {
			var bit uint64
			for i := s; i < 64; i += 8 {
				bit ^= (w >> uint(i)) & 1
			}
			p |= bit << uint(s)
		}
		want ^= p
	}
	if got := h.e.GranuleParity(data); got != want {
		t.Fatalf("GranuleParity = %#x, want %#x", got, want)
	}
}

// paritySink keeps benchmarked parities from being optimized away.
var paritySink uint64

// BenchmarkGranuleParity times the per-load verify kernel: the check bits
// of a one-word L1 granule at degree 8.
func BenchmarkGranuleParity(b *testing.B) {
	eng, err := New(cache.New(cache.L1DConfig()), DefaultL1Config())
	if err != nil {
		b.Fatal(err)
	}
	data := []uint64{0xdeadbeefcafebabe}
	b.ResetTimer()
	var x uint64
	for i := 0; i < b.N; i++ {
		x ^= eng.GranuleParity(data)
	}
	paritySink = x
}

func TestEngineRejectsBadConfig(t *testing.T) {
	c := cache.New(cache.L1DConfig())
	if _, err := New(c, Config{ParityDegree: 3, RegisterPairs: 1}); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestEventsCounted(t *testing.T) {
	h := newHarness(t, DefaultL1Config())
	h.store(0, 1)
	h.store(0, 2)
	if h.e.Events.Folds != 3 { // two R1 folds + one R2 fold
		t.Fatalf("Folds = %d, want 3", h.e.Events.Folds)
	}
	h.flip(0, 1)
	rep := h.recoverAt(0)
	if rep.Outcome != OutcomeCorrected || h.e.Events.Recoveries != 1 || h.e.Events.CorrectedSingle != 1 {
		t.Fatalf("events after recovery: %+v, report %+v", h.e.Events, rep)
	}
}
