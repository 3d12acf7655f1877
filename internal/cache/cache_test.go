package cache

import (
	"testing"
)

func smallConfig() Config {
	c, err := Config{
		Name: "test", SizeBytes: 1 << 10, Ways: 2, BlockBytes: 32,
		DirtyGranuleWords: 1, HitLatencyCycles: 2,
	}.Validate()
	if err != nil {
		panic(err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Name: "zero"},
		{Name: "odd-block", SizeBytes: 1024, Ways: 2, BlockBytes: 12},
		{Name: "non-pow2-sets", SizeBytes: 96, Ways: 1, BlockBytes: 32},
		{Name: "bad-granule", SizeBytes: 1024, Ways: 2, BlockBytes: 32, DirtyGranuleWords: 3},
		{Name: "bad-row", SizeBytes: 1024, Ways: 2, BlockBytes: 32, WordsPerRow: 7},
	}
	for _, c := range bad {
		if _, err := c.Validate(); err == nil {
			t.Errorf("config %q unexpectedly valid", c.Name)
		}
	}
	good, err := Config{Name: "ok", SizeBytes: 1024, Ways: 2, BlockBytes: 32}.Validate()
	if err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if good.DirtyGranuleWords != 1 || good.WordsPerRow != 4 || good.HitLatencyCycles != 1 {
		t.Errorf("defaults not applied: %+v", good)
	}
}

func TestPaperConfigs(t *testing.T) {
	l1 := L1DConfig()
	if l1.Sets() != 512 || l1.BlockWords() != 4 || l1.Granules() != 4 {
		t.Errorf("L1D geometry wrong: sets=%d words=%d granules=%d", l1.Sets(), l1.BlockWords(), l1.Granules())
	}
	l2 := L2Config()
	if l2.Sets() != 8192 || l2.Granules() != 1 {
		t.Errorf("L2 geometry wrong: sets=%d granules=%d", l2.Sets(), l2.Granules())
	}
	if L1IConfig().Ways != 1 {
		t.Error("L1I should be direct-mapped")
	}
}

func TestDecomposeRoundTrip(t *testing.T) {
	c := New(smallConfig())
	addr := uint64(0x12345678) &^ 7
	tag, set, word := c.Decompose(addr)
	_ = tag
	if word != int(addr%32)/8 {
		t.Errorf("word = %d", word)
	}
	// Install and reconstruct the block address.
	way := c.Victim(set)
	data := make([]uint64, 4)
	c.Install(set, way, addr, data)
	if got := c.BlockAddr(set, way); got != addr&^31 {
		t.Errorf("BlockAddr = %#x, want %#x", got, addr&^31)
	}
}

func TestProbeInstall(t *testing.T) {
	c := New(smallConfig())
	addr := uint64(0x1000)
	if _, way := c.Probe(addr); way != -1 {
		t.Fatal("empty cache hit")
	}
	set, _ := c.Probe(addr)
	c.Install(set, c.Victim(set), addr, []uint64{1, 2, 3, 4})
	s2, way := c.Probe(addr)
	if way == -1 || s2 != set {
		t.Fatal("installed block not found")
	}
	ln := c.Line(set, way)
	if ln.Data[2] != 3 {
		t.Errorf("data not copied: %v", ln.Data)
	}
	if ln.DirtyAny() {
		t.Error("fresh install is dirty")
	}
}

func TestLRUVictim(t *testing.T) {
	c := New(smallConfig())
	// Two addresses in the same set (set stride = sets*blockBytes = 16*32).
	stride := uint64(c.Cfg.Sets() * c.Cfg.BlockBytes)
	a, b, d := uint64(0x40), 0x40+stride, 0x40+2*stride
	set, _ := c.Probe(a)
	c.Install(set, c.Victim(set), a, make([]uint64, 4))
	c.Install(set, c.Victim(set), b, make([]uint64, 4))
	// Touch a so b becomes LRU.
	if _, way := c.Probe(a); way >= 0 {
		c.Touch(set, way)
	}
	vic := c.Victim(set)
	if _, wayB := c.Probe(b); vic != wayB {
		t.Errorf("victim = way %d, want LRU way of b", vic)
	}
	// Install d over the victim; b must be gone.
	c.Install(set, vic, d, make([]uint64, 4))
	if _, way := c.Probe(b); way != -1 {
		t.Error("b still resident after replacement")
	}
	if _, way := c.Probe(a); way == -1 {
		t.Error("a evicted although MRU")
	}
}

func TestDirtyAccounting(t *testing.T) {
	c := New(smallConfig())
	addr := uint64(0)
	set, _ := c.Probe(addr)
	way := c.Victim(set)
	c.Install(set, way, addr, make([]uint64, 4))

	c.MarkDirty(set, way, 0, 100)
	c.MarkDirty(set, way, 1, 100)
	if c.DirtyGranuleCount() != 2 {
		t.Fatalf("dirty count = %d", c.DirtyGranuleCount())
	}
	// Re-marking the same word does not double count.
	c.MarkDirty(set, way, 0, 110)
	if c.DirtyGranuleCount() != 2 {
		t.Fatalf("dirty count after re-mark = %d", c.DirtyGranuleCount())
	}
	c.MarkClean(set, way, 0)
	if c.DirtyGranuleCount() != 1 {
		t.Fatalf("dirty count after clean = %d", c.DirtyGranuleCount())
	}
	// Invalidate removes the remaining dirty granule from the population.
	c.Invalidate(set, way)
	if c.DirtyGranuleCount() != 0 {
		t.Fatalf("dirty count after invalidate = %d", c.DirtyGranuleCount())
	}
}

func TestInstallOverDirtyLine(t *testing.T) {
	c := New(smallConfig())
	addr := uint64(0)
	set, _ := c.Probe(addr)
	way := c.Victim(set)
	c.Install(set, way, addr, make([]uint64, 4))
	c.MarkDirty(set, way, 0, 1)
	// Overwriting the line (as a fill would after eviction) clears its
	// dirty contribution.
	stride := uint64(c.Cfg.Sets() * c.Cfg.BlockBytes)
	c.Install(set, way, addr+stride, make([]uint64, 4))
	if c.DirtyGranuleCount() != 0 {
		t.Fatalf("dirty count = %d after reinstall", c.DirtyGranuleCount())
	}
}

func TestTavgMeasurement(t *testing.T) {
	c := New(smallConfig())
	addr := uint64(0)
	set, _ := c.Probe(addr)
	way := c.Victim(set)
	c.Install(set, way, addr, make([]uint64, 4))
	c.MarkDirty(set, way, 0, 1000)
	ln := c.Line(set, way)
	c.TouchDirtyG(ln, c.GranuleOf(0), 1500) // interval 500
	c.TouchDirtyG(ln, c.GranuleOf(0), 1700) // interval 200
	if got := c.Tavg(); got != 350 {
		t.Errorf("Tavg = %v, want 350", got)
	}
	// Clean granules do not contribute.
	c.TouchDirtyG(ln, c.GranuleOf(1), 2000)
	if got := c.Tavg(); got != 350 {
		t.Errorf("Tavg disturbed by clean access: %v", got)
	}
}

func TestDirtyOccupancySampling(t *testing.T) {
	c := New(smallConfig())
	addr := uint64(0)
	set, _ := c.Probe(addr)
	way := c.Victim(set)
	c.Install(set, way, addr, make([]uint64, 4))
	c.SampleDirtyOccupancy() // 0 dirty
	c.MarkDirty(set, way, 0, 1)
	c.SampleDirtyOccupancy() // 1 of 128 granules dirty
	want := (0.0 + 1.0/128.0) / 2
	if got := c.DirtyFraction(); got != want {
		t.Errorf("DirtyFraction = %v, want %v", got, want)
	}
}

func TestForEachDirtyGranule(t *testing.T) {
	c := New(smallConfig())
	for i := 0; i < 4; i++ {
		addr := uint64(i * c.Cfg.BlockBytes)
		set, _ := c.Probe(addr)
		way := c.Victim(set)
		c.Install(set, way, addr, make([]uint64, 4))
		if i%2 == 0 {
			c.MarkDirty(set, way, i%4, 1)
		}
	}
	n := 0
	c.ForEachDirtyGranule(func(set, way, g int, ln *Line) { n++ })
	if n != 2 {
		t.Errorf("visited %d dirty granules, want 2", n)
	}
}

func TestFlipBits(t *testing.T) {
	c := New(smallConfig())
	addr := uint64(0)
	set, _ := c.Probe(addr)
	way := c.Victim(set)
	c.Install(set, way, addr, []uint64{0xff, 0, 0, 0})
	c.FlipBits(set, way, 0, 0x0f)
	if got := c.Line(set, way).Data[0]; got != 0xf0 {
		t.Errorf("data after flip = %#x", got)
	}
	c.FlipCheckBits(set, way, 0, 0x3)
	if got := c.Line(set, way).Check[0]; got != 0x3 {
		t.Errorf("check after flip = %#x", got)
	}
}

func TestMemoryGolden(t *testing.T) {
	m := NewMemory(32, 200)
	m.WriteWord(0x100, 0xdead)
	if m.ReadWord(0x100) != 0xdead {
		t.Fatal("ReadWord mismatch")
	}
	dst := make([]uint64, 4)
	if lat := m.FetchBlock(0x108, dst, 0); lat != 200 {
		t.Errorf("latency = %d", lat)
	}
	if dst[0] != 0xdead {
		t.Errorf("block fetch = %v", dst)
	}
	m.WriteBackBlock(0x120, []uint64{1, 2, 3, 4}, 0)
	if m.ReadWord(0x128) != 2 {
		t.Error("write-back not visible")
	}
	if m.Fetches != 1 || m.WriteBacks != 1 {
		t.Errorf("counters: %d fetches, %d writebacks", m.Fetches, m.WriteBacks)
	}
}

func TestStatsAddAndRates(t *testing.T) {
	var a, b Stats
	a.Loads, a.LoadHits, a.Misses = 10, 8, 2
	b.Stores, b.StoreHits, b.ReadBeforeWrite = 5, 5, 3
	a.Add(b)
	if a.Accesses() != 15 {
		t.Errorf("Accesses = %d", a.Accesses())
	}
	if got := a.MissRate(); got != 2.0/15.0 {
		t.Errorf("MissRate = %v", got)
	}
	var empty Stats
	if empty.MissRate() != 0 {
		t.Error("MissRate of empty stats should be 0")
	}
}
