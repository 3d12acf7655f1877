package protect

import (
	"math/rand"
	"testing"

	"cppc/internal/cache"
	"cppc/internal/core"
)

func testCache() *cache.Cache { return testCacheGranule(1) }

// testCacheGranule is testCache with gw-word dirty granules: 1 is the L1
// shape, 4 (a whole block) the L2 shape.
func testCacheGranule(gw int) *cache.Cache {
	cfg, err := cache.Config{
		Name: "t", SizeBytes: 2048, Ways: 2, BlockBytes: 32,
		DirtyGranuleWords: gw, HitLatencyCycles: 2,
	}.Validate()
	if err != nil {
		panic(err)
	}
	return cache.New(cfg)
}

func allSchemes(c *cache.Cache) []Scheme {
	return []Scheme{
		NewParity1D(c, 8),
		NewSECDED(c, true),
		NewTwoDim(c, 8),
		MustCPPC(c, core.DefaultL1Config()),
	}
}

func TestKindStrings(t *testing.T) {
	fw := map[FaultStatus]string{
		FaultNone: "none", FaultCorrectedClean: "corrected-clean",
		FaultCorrectedDirty: "corrected-dirty", FaultDUE: "DUE",
		FaultStatus(9): "unknown",
	}
	for f, s := range fw {
		if f.String() != s {
			t.Errorf("fault %d.String() = %q", int(f), f.String())
		}
	}
}

// TestRoundTripAllSchemes: stored values must read back identically under
// every scheme, across hits, misses, evictions and write-backs.
func TestRoundTripAllSchemes(t *testing.T) {
	for _, mk := range []func(*cache.Cache) Scheme{
		func(c *cache.Cache) Scheme { return NewParity1D(c, 8) },
		func(c *cache.Cache) Scheme { return NewSECDED(c, true) },
		func(c *cache.Cache) Scheme { return NewTwoDim(c, 8) },
		func(c *cache.Cache) Scheme { return MustCPPC(c, core.DefaultL1Config()) },
	} {
		c := testCache()
		s := mk(c)
		mem := cache.NewMemory(32, 100)
		ct := NewController(c, s, mem)
		rng := rand.New(rand.NewSource(5))
		golden := map[uint64]uint64{}
		var now uint64
		for op := 0; op < 4000; op++ {
			now++
			addr := uint64(rng.Intn(512)) * 8 // 4KB footprint over a 2KB cache
			if rng.Intn(2) == 0 {
				v := rng.Uint64()
				golden[addr] = v
				ct.Store(addr, v, now)
			} else {
				res := ct.Load(addr, now)
				if want, okW := golden[addr]; okW && res.Value != want {
					t.Fatalf("%s: load %#x = %#x, want %#x", s.Name(), addr, res.Value, want)
				}
				if res.Fault != FaultNone {
					t.Fatalf("%s: spurious fault %v", s.Name(), res.Fault)
				}
			}
		}
		if ct.Halted {
			t.Fatalf("%s: halted without faults", s.Name())
		}
		// Flush and verify memory holds the golden image.
		ct.Flush(now)
		for addr, v := range golden {
			if got := mem.ReadWord(addr); got != v {
				t.Fatalf("%s: memory %#x = %#x, want %#x", s.Name(), addr, got, v)
			}
		}
	}
}

func TestHitMissAccounting(t *testing.T) {
	c := testCache()
	ct := NewController(c, NewParity1D(c, 8), cache.NewMemory(32, 100))
	ct.Store(0, 1, 1) // miss, fill
	ct.Load(0, 2)     // hit
	ct.Load(8, 3)     // hit (same block)
	ct.Load(1<<16, 4) // miss
	if ct.Stats.Misses != 2 || ct.Stats.LoadHits != 2 || ct.Stats.StoreHits != 0 {
		t.Fatalf("stats = %+v", ct.Stats)
	}
	if ct.Stats.Fills != 2 {
		t.Fatalf("fills = %d", ct.Stats.Fills)
	}
}

func TestMissLatencyIncludesNextLevel(t *testing.T) {
	c := testCache()
	ct := NewController(c, NewParity1D(c, 8), cache.NewMemory(32, 100))
	res := ct.Load(0, 1)
	if res.Hit || res.Latency != 2+100 {
		t.Fatalf("miss result = %+v", res)
	}
	res = ct.Load(0, 2)
	if !res.Hit || res.Latency != 2 {
		t.Fatalf("hit result = %+v", res)
	}
}

// TestRBWAccounting checks the scheme-defining read-before-write rules:
// CPPC pays only on stores to dirty words; 2D parity on every store and
// on every valid-victim miss; parity/SECDED never.
func TestRBWAccounting(t *testing.T) {
	// CPPC: first store clean (no RBW), second store to same word dirty (RBW).
	c := testCache()
	ct := NewController(c, MustCPPC(c, core.DefaultL1Config()), cache.NewMemory(32, 100))
	ct.Store(0, 1, 1)
	if ct.Stats.ReadBeforeWrite != 0 {
		t.Fatalf("cppc: RBW after clean store = %d", ct.Stats.ReadBeforeWrite)
	}
	res := ct.Store(0, 2, 2)
	if ct.Stats.ReadBeforeWrite != 1 || res.ReadPortOps != 1 {
		t.Fatalf("cppc: RBW after dirty store = %d (ports %d)", ct.Stats.ReadBeforeWrite, res.ReadPortOps)
	}

	// 2D: every store pays.
	c2 := testCache()
	ct2 := NewController(c2, NewTwoDim(c2, 8), cache.NewMemory(32, 100))
	ct2.Store(0, 1, 1)
	ct2.Store(0, 2, 2)
	if ct2.Stats.ReadBeforeWrite != 2 {
		t.Fatalf("2d: RBW = %d, want 2", ct2.Stats.ReadBeforeWrite)
	}
	// And a conflict miss over a valid victim pays a whole-line read.
	stride := uint64(c2.Cfg.Sets() * c2.Cfg.BlockBytes)
	ct2.Load(stride*0, 3)
	ct2.Load(stride*1, 4)
	ct2.Load(stride*2, 5) // evicts a valid line
	if ct2.Stats.RBWOnMissLines == 0 {
		t.Fatal("2d: no whole-line RBW on conflict miss")
	}

	// SECDED and 1D parity: never.
	for _, mk := range []func(*cache.Cache) Scheme{
		func(c *cache.Cache) Scheme { return NewSECDED(c, true) },
		func(c *cache.Cache) Scheme { return NewParity1D(c, 8) },
	} {
		c3 := testCache()
		ct3 := NewController(c3, mk(c3), cache.NewMemory(32, 100))
		ct3.Store(0, 1, 1)
		ct3.Store(0, 2, 2)
		if ct3.Stats.ReadBeforeWrite != 0 {
			t.Fatalf("%s: RBW = %d", ct3.Scheme.Name(), ct3.Stats.ReadBeforeWrite)
		}
	}
}

func TestWriteBackPropagates(t *testing.T) {
	c := testCache()
	mem := cache.NewMemory(32, 100)
	ct := NewController(c, MustCPPC(c, core.DefaultL1Config()), mem)
	stride := uint64(c.Cfg.Sets() * c.Cfg.BlockBytes)
	ct.Store(0x40, 0xdead, 1)
	ct.Load(0x40+stride, 2)
	ct.Load(0x40+2*stride, 3) // evicts the dirty block
	if mem.ReadWord(0x40) != 0xdead {
		t.Fatal("dirty write-back lost")
	}
	if ct.Stats.WriteBack != 1 {
		t.Fatalf("writebacks = %d", ct.Stats.WriteBack)
	}
}

// TestTwoLevelHierarchy stacks an L1 CPPC controller on an L2 CPPC
// controller on memory and checks end-to-end data flow.
func TestTwoLevelHierarchy(t *testing.T) {
	l2c := cache.New(cache.L2Config())
	l2 := NewController(l2c, MustCPPC(l2c, core.DefaultL2Config()), cache.NewMemory(32, 200))
	l1c := cache.New(cache.L1DConfig())
	l1 := NewController(l1c, MustCPPC(l1c, core.DefaultL1Config()), l2)

	rng := rand.New(rand.NewSource(17))
	golden := map[uint64]uint64{}
	var now uint64
	for op := 0; op < 20000; op++ {
		now++
		addr := uint64(rng.Intn(1<<14)) * 8 // 128KB footprint: misses in L1, hits in L2
		if rng.Intn(2) == 0 {
			v := rng.Uint64()
			golden[addr] = v
			l1.Store(addr, v, now)
		} else if want, okW := golden[addr]; okW {
			if res := l1.Load(addr, now); res.Value != want {
				t.Fatalf("load %#x = %#x, want %#x", addr, res.Value, want)
			}
		}
	}
	if l2.Stats.Accesses() == 0 {
		t.Fatal("L2 never accessed")
	}
	if err := l1.Scheme.(*CPPCScheme).Engine.CheckInvariant(); err != nil {
		t.Fatalf("L1 invariant: %v", err)
	}
	if err := l2.Scheme.(*CPPCScheme).Engine.CheckInvariant(); err != nil {
		t.Fatalf("L2 invariant: %v", err)
	}
}

func TestSchemeMetadata(t *testing.T) {
	c := testCache()
	for _, s := range allSchemes(c) {
		if s.Name() == "" {
			t.Errorf("%T: empty name", s)
		}
		if s.CheckBitsPerGranule() <= 0 {
			t.Errorf("%s: non-positive check bits", s.Name())
		}
	}
	if NewSECDED(c, true).BitlineFactor() != 8 {
		t.Error("interleaved SECDED bitline factor should be 8")
	}
	if NewSECDED(c, false).BitlineFactor() != 1 {
		t.Error("non-interleaved SECDED bitline factor should be 1")
	}
}

func TestDirtySamplingThroughController(t *testing.T) {
	c := testCache()
	ct := NewController(c, NewParity1D(c, 8), cache.NewMemory(32, 100))
	ct.SetSampleInterval(1)
	var now uint64
	for i := 0; i < 64; i++ {
		now++
		ct.Store(uint64(i*8), 1, now)
	}
	if c.DirtyFraction() <= 0 {
		t.Fatal("dirty fraction not sampled")
	}
}
