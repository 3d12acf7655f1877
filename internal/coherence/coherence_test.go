package coherence

import (
	"math/rand"
	"testing"

	"cppc/internal/cache"
	"cppc/internal/core"
	"cppc/internal/protect"
)

func smallL1() cache.Config {
	cfg, err := cache.Config{
		Name: "mpL1", SizeBytes: 4096, Ways: 2, BlockBytes: 32,
		DirtyGranuleWords: 1, HitLatencyCycles: 2,
	}.Validate()
	if err != nil {
		panic(err)
	}
	return cfg
}

func smallL2() cache.Config {
	cfg, err := cache.Config{
		Name: "mpL2", SizeBytes: 64 << 10, Ways: 4, BlockBytes: 32,
		DirtyGranuleWords: 4, HitLatencyCycles: 8,
	}.Validate()
	if err != nil {
		panic(err)
	}
	return cfg
}

func cppcL1(c *cache.Cache) protect.Scheme { return protect.MustCPPC(c, core.DefaultL1Config()) }
func cppcL2(c *cache.Cache) protect.Scheme { return protect.MustCPPC(c, core.DefaultL2Config()) }

func newMP(n int) *Multiprocessor {
	return New(n, smallL1(), smallL2(), cppcL1, cppcL2, 100)
}

func TestBasicSharing(t *testing.T) {
	m := newMP(2)
	m.Write(0, 0x100, 0xAA, 1)
	// Core 1 reads the line core 0 dirtied: the owner must flush first.
	res := m.Read(1, 0x100, 2)
	if res.Value != 0xAA {
		t.Fatalf("core 1 read %#x", res.Value)
	}
	if m.Stats.OwnerFlushes != 1 {
		t.Fatalf("stats = %+v", m.Stats)
	}
	// Both copies are now clean (Shared).
	for i := 0; i < 2; i++ {
		set, way := m.L1s[i].C.Probe(0x100)
		if way < 0 {
			t.Fatalf("core %d lost its copy", i)
		}
		if m.L1s[i].C.Line(set, way).DirtyAny() {
			t.Fatalf("core %d copy still dirty after downgrade", i)
		}
	}
	if err := m.CheckCoherent(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	m := newMP(4)
	for core := 0; core < 4; core++ {
		m.Read(core, 0x200, uint64(core+1))
	}
	m.Write(0, 0x200, 0xBB, 10)
	if m.Stats.Invalidations != 3 {
		t.Fatalf("invalidations = %d", m.Stats.Invalidations)
	}
	for core := 1; core < 4; core++ {
		if _, way := m.L1s[core].C.Probe(0x200); way >= 0 {
			t.Fatalf("core %d still holds an invalidated block", core)
		}
	}
	// The new value is visible everywhere.
	for core := 1; core < 4; core++ {
		if res := m.Read(core, 0x200, uint64(20+core)); res.Value != 0xBB {
			t.Fatalf("core %d reads %#x", core, res.Value)
		}
	}
}

func TestDirtyInvalidationFoldsIntoR2(t *testing.T) {
	m := newMP(2)
	m.Write(0, 0x300, 0xCC, 1)
	eng, _ := schemeEngine(m.L1s[0])
	if m.L1s[0].C.DirtyGranuleCount() != 1 {
		t.Fatal("core 0 should hold one dirty word")
	}
	// A remote write invalidates the Modified copy: the dirty data folds
	// into R2 and the register invariant survives.
	m.Write(1, 0x300, 0xDD, 2)
	if m.Stats.OwnerWritebackInvalidations != 1 {
		t.Fatalf("stats = %+v", m.Stats)
	}
	if m.L1s[0].C.DirtyGranuleCount() != 0 {
		t.Fatal("core 0 dirty data not cleared")
	}
	if err := eng.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	if res := m.Read(0, 0x300, 3); res.Value != 0xDD {
		t.Fatalf("core 0 reads %#x after re-share", res.Value)
	}
}

func schemeEngine(ct *protect.Controller) (*core.Engine, bool) {
	s, ok := ct.Scheme.(*protect.CPPCScheme)
	if !ok {
		return nil, false
	}
	return s.Engine, true
}

func TestGoldenUnderRandomSharing(t *testing.T) {
	for _, cores := range []int{1, 2, 4} {
		m := newMP(cores)
		w := DefaultWorkload(cores)
		golden := w.Run(m, 20000, 7)
		if err := m.CheckCoherent(); err != nil {
			t.Fatalf("%d cores: %v", cores, err)
		}
		// Every golden value must be readable from every core.
		rng := rand.New(rand.NewSource(9))
		now := uint64(1 << 20)
		checked := 0
		for addr, want := range golden {
			if checked > 500 {
				break
			}
			checked++
			core := rng.Intn(cores)
			now++
			if res := m.Read(core, addr, now); res.Value != want {
				t.Fatalf("%d cores: core %d reads %#x at %#x, want %#x",
					cores, core, res.Value, addr, want)
			}
		}
		for i, l1 := range m.L1s {
			if eng, ok := schemeEngine(l1); ok {
				if err := eng.CheckInvariant(); err != nil {
					t.Fatalf("%d cores: L1[%d] invariant: %v", cores, i, err)
				}
			}
		}
		if eng, ok := schemeEngine(m.L2); ok {
			if err := eng.CheckInvariant(); err != nil {
				t.Fatalf("%d cores: L2 invariant: %v", cores, err)
			}
		}
	}
}

// TestSection7Hypothesis: write sharing reduces the read-before-write
// ratio — invalidations keep stealing dirty blocks before their owner can
// store over them again.
func TestSection7Hypothesis(t *testing.T) {
	ratio := func(sharedFrac float64) float64 {
		m := newMP(4)
		w := DefaultWorkload(4)
		w.SharedFrac = sharedFrac
		w.Run(m, 40000, 11)
		st := m.TotalL1Stats()
		return float64(st.ReadBeforeWrite) / float64(st.Stores)
	}
	private := ratio(0)
	shared := ratio(0.8)
	if shared >= private {
		t.Errorf("RBW/store did not drop with sharing: private %.3f, shared %.3f",
			private, shared)
	}
}

// TestFaultRecoveryAcrossCores: a fault in one core's dirty data recovers
// locally; a fault in data another core then reads is transparent.
func TestFaultRecoveryAcrossCores(t *testing.T) {
	m := newMP(2)
	m.Write(0, 0x400, 0xEE, 1)
	set, way := m.L1s[0].C.Probe(0x400)
	m.L1s[0].C.FlipBits(set, way, 0, 1<<21)
	// Core 1 reads: core 0 must flush — the CPPC verifies dirty data on
	// downgrade and recovers before the write-back.
	if res := m.Read(1, 0x400, 2); res.Value != 0xEE {
		t.Fatalf("core 1 reads %#x through a faulty owner", res.Value)
	}
	if res := m.Read(0, 0x400, 3); res.Value != 0xEE {
		t.Fatalf("core 0 re-reads %#x", res.Value)
	}
}

func TestCoherentDetectsViolations(t *testing.T) {
	m := newMP(2)
	m.Write(0, 0x500, 1, 1)
	// Manufacture a violation: force core 1 to also hold the block dirty.
	m.L1s[1].Store(0x500, 2, 2)
	if err := m.CheckCoherent(); err == nil {
		t.Fatal("double-Modified block not detected")
	}
}

// TestDirectoryLookupAbsent: the checker's lookup reports a block no
// access touched as absent, including the untouched neighbours that
// share a directory page with a touched block, and a released system's
// directory pages come back to the next system empty.
func TestDirectoryLookupAbsent(t *testing.T) {
	m := newMP(2)
	if _, ok := m.lookup(0x1000); ok {
		t.Fatal("fresh directory reports block 0x1000 present")
	}
	m.Write(1, 0x1000, 7, 1)
	if e, ok := m.lookup(0x1008); !ok || e.owner != 1 || e.sharers != 1<<1 {
		t.Fatalf("after core 1's write: lookup = %+v, %v", e, ok)
	}
	if e, ok := m.lookup(0x1020); ok {
		t.Fatalf("untouched neighbour block 0x1020 reported present: %+v", e)
	}
	m.Read(0, 0x1000, 2)
	if e, ok := m.lookup(0x1000); !ok || e.owner != -1 || e.sharers != 1<<0|1<<1 {
		t.Fatalf("after core 0's read: lookup = %+v, %v", e, ok)
	}
	m.Release()
	m = newMP(2)
	m.Write(0, 0x1040, 1, 1) // adopts a recycled page for 0x1000's range
	if e, ok := m.lookup(0x1000); ok {
		t.Fatalf("a recycled directory page kept block 0x1000: %+v", e)
	}
}
