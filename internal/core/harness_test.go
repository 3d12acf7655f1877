package core

import (
	"testing"

	"cppc/internal/cache"
)

// harness drives an Engine the way the cache controller does: miss
// handling with write-backs, fills, and the store sequence (capture old
// data, write, fold).
type harness struct {
	t   *testing.T
	c   *cache.Cache
	e   *Engine
	mem *cache.Memory
	now uint64

	// eliding routes verified stores through elidingStore, the skipping
	// reference (see silent_test.go).
	eliding bool
}

// newHarness builds a small direct-mapped cache (16 sets x 32B blocks, one
// block per physical row) so that consecutive blocks occupy vertically
// adjacent rows, which makes spatial-fault placement straightforward.
func newHarness(t *testing.T, cfg Config) *harness {
	t.Helper()
	ccfg, err := cache.Config{
		Name: "test", SizeBytes: 512, Ways: 1, BlockBytes: 32,
		DirtyGranuleWords: 1, HitLatencyCycles: 2,
	}.Validate()
	if err != nil {
		t.Fatal(err)
	}
	c := cache.New(ccfg)
	return &harness{t: t, c: c, e: MustNew(c, cfg), mem: cache.NewMemory(32, 100)}
}

// newL2Harness builds a small L2-style cache: dirty granule = whole 32B
// block, one block per row.
func newL2Harness(t *testing.T, cfg Config) *harness {
	t.Helper()
	ccfg, err := cache.Config{
		Name: "testL2", SizeBytes: 1024, Ways: 1, BlockBytes: 32,
		DirtyGranuleWords: 4, HitLatencyCycles: 8,
	}.Validate()
	if err != nil {
		t.Fatal(err)
	}
	c := cache.New(ccfg)
	return &harness{t: t, c: c, e: MustNew(c, cfg), mem: cache.NewMemory(32, 100)}
}

// ensure brings the block holding addr into the cache, write-backs
// included, and returns its coordinates.
func (h *harness) ensure(addr uint64) (set, way int) {
	set, way = h.c.Probe(addr)
	if way >= 0 {
		h.c.Touch(set, way)
		return set, way
	}
	way = h.c.Victim(set)
	h.writeBack(set, way)
	buf := make([]uint64, h.c.Cfg.BlockWords())
	h.mem.FetchBlock(addr, buf, h.now)
	h.c.Install(set, way, addr, buf)
	h.e.OnFill(set, way)
	return set, way
}

// writeBack folds a valid dirty block out of the registers and writes it
// to memory, as an eviction does.
func (h *harness) writeBack(set, way int) {
	ln := h.c.Line(set, way)
	if ln.Valid && ln.DirtyAny() {
		h.e.OnEvictBlock(set, way)
		h.mem.WriteBackBlock(h.c.BlockAddr(set, way), ln.Data, h.now)
	}
}

// evict writes back and invalidates the block holding addr, if resident.
func (h *harness) evict(addr uint64) {
	set, way := h.c.Probe(addr)
	if way < 0 {
		return
	}
	h.writeBack(set, way)
	h.c.Invalidate(set, way)
}

// store performs a word store through the engine.
func (h *harness) store(addr, val uint64) {
	h.now++
	set, way := h.ensure(addr)
	_, _, word := h.c.Decompose(addr)
	g := word / h.e.GranuleWords()
	ln := h.c.Line(set, way)
	old := append([]uint64(nil), h.e.GranuleData(ln, g)...)
	wasDirty := ln.Dirty[g]
	ln.Data[word] = val
	h.e.OnStore(set, way, g, old, wasDirty, false, h.now)
}

// storeBlock writes a whole granule (the L2 write-back path).
func (h *harness) storeBlock(addr uint64, vals []uint64) {
	h.now++
	set, way := h.ensure(addr)
	_, _, word := h.c.Decompose(addr)
	g := word / h.e.GranuleWords()
	ln := h.c.Line(set, way)
	old := append([]uint64(nil), h.e.GranuleData(ln, g)...)
	wasDirty := ln.Dirty[g]
	copy(h.e.GranuleData(ln, g), vals)
	h.e.OnStore(set, way, g, old, wasDirty, false, h.now)
}

// load reads a word, returning its value and the granule parity syndrome.
func (h *harness) load(addr uint64) (uint64, uint64) {
	h.now++
	set, way := h.ensure(addr)
	_, _, word := h.c.Decompose(addr)
	g := word / h.e.GranuleWords()
	syn := h.e.CheckSyndrome(set, way, g)
	return h.c.Line(set, way).Data[word], syn
}

// locate returns the coordinates of a resident word.
func (h *harness) locate(addr uint64) (set, way, word, g int) {
	set, way = h.c.Probe(addr)
	if way < 0 {
		h.t.Fatalf("addr %#x not resident", addr)
	}
	_, _, word = h.c.Decompose(addr)
	return set, way, word, word / h.e.GranuleWords()
}

// flip injects a fault into the stored data of a resident word.
func (h *harness) flip(addr uint64, mask uint64) {
	set, way, word, _ := h.locate(addr)
	h.c.FlipBits(set, way, word, mask)
}

// recoverAt triggers recovery for the granule holding addr.
func (h *harness) recoverAt(addr uint64) Report {
	set, way, _, g := h.locate(addr)
	return h.e.RecoverDirty(set, way, g)
}

// mustInvariant fails the test if the register invariant is broken.
func (h *harness) mustInvariant() {
	h.t.Helper()
	if err := h.e.CheckInvariant(); err != nil {
		h.t.Fatal(err)
	}
}

// rowAddr returns the address of word `word` of the block on physical row
// r (direct-mapped, one block per row: row == set == block index).
func (h *harness) rowAddr(row, word int) uint64 {
	return uint64(row*h.c.Cfg.BlockBytes + word*8)
}
