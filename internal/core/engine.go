package core

import (
	"fmt"
	"sync"

	"cppc/internal/bitops"
	"cppc/internal/cache"
)

// Events counts what the engine did; consumed by the energy model and the
// fault campaigns.
type Events struct {
	Folds           uint64 // register XOR updates (R1 or R2)
	Recoveries      uint64 // recovery procedures triggered
	SweptGranules   uint64 // dirty granules visited during recoveries
	CorrectedSingle uint64 // single-faulty-granule corrections (Sec. 3.2)
	CorrectedCheck  uint64 // corrupted check bits rewritten
	CorrectedDisj   uint64 // multi-fault, disjoint parity stripes (step 4)
	CorrectedSpat   uint64 // spatial corrections via the fault locator
	LocatorRuns     uint64
	DUEs            uint64 // detected unrecoverable errors (step 7 halt)
	RegisterScrubs  uint64 // register faults repaired from the cache (Sec. 4.9)
	// SilentStoresElided counts the silent stores an eliding cache would
	// skip (Config.SilentStoreElision): a verified old value, a dirty
	// granule and every word equal. The engine still performs them, so
	// the count changes no other state; energy.CountElided prices each
	// as one array write and two folds saved.
	SilentStoresElided uint64
}

// Engine attaches CPPC protection to a cache. It detects through the
// interleaved parity check code it embeds (stored in the cache's check
// array), owns the register pairs, and implements the recovery algorithm
// and fault locator.
type Engine struct {
	Parity
	Cfg Config

	granuleWords int
	r1, r2       [][]uint64 // [pair][element]

	// Geometry tables, precomputed at construction: the rotation class of
	// a granule is a pure function of its physical coordinates, and the
	// per-store ClassOf -> CoordOf chain (index arithmetic with three
	// divisions) was hot enough to matter. classTab/pairTab/rotTab are
	// indexed by (set*ways+way)*granules + g.
	classTab []uint8
	pairTab  []uint8
	rotTab   []uint8
	granules int // granules per block, cached

	// Sec. 4.9 register self-protection (EnableRegisterParity).
	regParity    bool
	r1Par, r2Par [][]uint64

	Events Events
}

// geomTabs is one immutable set of precomputed geometry tables. The
// tables are a pure function of the cache configuration (which fully
// determines the physical layout) and the engine configuration, and
// engines only ever read them — so they are built once per distinct
// (cache.Config, core.Config) and shared across every engine of that
// shape. Cell sweeps construct thousands of same-shaped engines; the
// ~100KB L2 table walk was a measurable slice of cell construction.
type geomTabs struct {
	class, pair, rot []uint8
}

var geomTabCache sync.Map // struct{cache.Config; Config} -> *geomTabs

func geomTabsFor(c *cache.Cache, cfg Config, granules int) *geomTabs {
	type key struct {
		cc cache.Config
		ec Config
	}
	k := key{c.Cfg, cfg}
	if t, ok := geomTabCache.Load(k); ok {
		return t.(*geomTabs)
	}
	g := c.Cfg.DirtyGranuleWords
	t := &geomTabs{
		class: make([]uint8, c.Sets()*c.Ways()*granules),
		pair:  make([]uint8, c.Sets()*c.Ways()*granules),
		rot:   make([]uint8, c.Sets()*c.Ways()*granules),
	}
	for set := 0; set < c.Sets(); set++ {
		for way := 0; way < c.Ways(); way++ {
			for gi := 0; gi < granules; gi++ {
				class := c.Geom.ClassOf(set, way, gi*g)
				i := (set*c.Ways()+way)*granules + gi
				t.class[i] = uint8(class)
				t.pair[i] = uint8(cfg.PairOf(class))
				t.rot[i] = uint8(cfg.RotationOf(class))
			}
		}
	}
	// Concurrent builders race benignly: the content is identical, and
	// LoadOrStore keeps exactly one copy resident.
	actual, _ := geomTabCache.LoadOrStore(k, t)
	return actual.(*geomTabs)
}

// New attaches a CPPC engine to c. The register width follows the cache's
// dirty granularity: one word for an L1 CPPC, one L1 block for an L2 CPPC
// (Sec. 3.5).
func New(c *cache.Cache, cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := c.Cfg.DirtyGranuleWords
	e := &Engine{
		Parity:       Parity{C: c, Degree: cfg.ParityDegree},
		Cfg:          cfg,
		granuleWords: g,
		granules:     c.Granules(),
	}
	e.r1 = make([][]uint64, cfg.RegisterPairs)
	e.r2 = make([][]uint64, cfg.RegisterPairs)
	for p := range e.r1 {
		e.r1[p] = make([]uint64, g)
		e.r2[p] = make([]uint64, g)
	}
	tabs := geomTabsFor(c, cfg, e.granules)
	e.classTab, e.pairTab, e.rotTab = tabs.class, tabs.pair, tabs.rot
	return e, nil
}

// MustNew is New that panics on configuration errors.
func MustNew(c *cache.Cache, cfg Config) *Engine {
	e, err := New(c, cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// GranuleWords is the register width in 64-bit words.
func (e *Engine) GranuleWords() int { return e.granuleWords }

// R1 and R2 expose the live register contents for inspection and tests.
// The returned slices are read-only views: callers must not mutate them
// (use FlipRegisterBits to inject register faults). They used to return
// fresh copies on every call, which put an allocation on every recovery
// and test probe for no benefit — no caller writes through them.
func (e *Engine) R1(pair int) []uint64 { return e.r1[pair] }
func (e *Engine) R2(pair int) []uint64 { return e.r2[pair] }

// ClassOf is the rotation class of granule g of block (set, way): the
// physical row (of the granule's first word) modulo 8.
func (e *Engine) ClassOf(set, way, g int) int {
	return int(e.classTab[(set*e.C.Ways()+way)*e.granules+g])
}

// geomOf returns the precomputed (pair, rotation) of a granule.
func (e *Engine) geomOf(set, way, g int) (pair, rot int) {
	i := (set*e.C.Ways()+way)*e.granules + g
	return int(e.pairTab[i]), int(e.rotTab[i])
}

// fold XORs data (rotated right by rot bytes, the paper's barrel-shifter
// direction) into dst element-wise.
func fold(dst, data []uint64, rot int) {
	for j := range dst {
		dst[j] ^= bitops.RotrBytes(data[j], rot)
	}
}

// foldReg folds into a register and keeps its parity current when
// register self-protection is enabled.
func (e *Engine) foldReg(reg, par [][]uint64, pair int, data []uint64, rot int) {
	fold(reg[pair], data, rot)
	if e.regParity {
		for j := range reg[pair] {
			par[pair][j] = bitops.Parity(reg[pair][j], e.Cfg.ParityDegree)
		}
	}
	e.Events.Folds++
}

// unfold reverses fold for a single register image.
func unfold(reg []uint64, rot int) []uint64 {
	out := make([]uint64, len(reg))
	for j := range reg {
		out[j] = bitops.RotlBytes(reg[j], rot)
	}
	return out
}

// OnStore records a write of granule g: the cache line must already hold
// the new data; old is the granule's previous contents and wasDirty its
// previous dirty state. The new data is folded into R1 and, if the granule
// was dirty, the displaced old data into R2 — the read-before-write of
// Sec. 3.1. The granule is marked dirty and its check bits updated
// (incrementally when oldVerified, see Parity.UpdateCheck).
func (e *Engine) OnStore(set, way, g int, old []uint64, wasDirty, oldVerified bool, now uint64) {
	pair, rot := e.geomOf(set, way, g)
	ln := e.C.Line(set, way)
	data := e.GranuleData(ln, g)
	if e.Cfg.SilentStoreElision && oldVerified && wasDirty && silentStore(old, data) {
		// A silent store: the verified old value equals the new one. It
		// is counted, then performed like any other store: new folds
		// into R1 and the equal old into R2, which cancel in R1^R2, and
		// the check-bit delta is zero. The energy model prices the skip.
		e.Events.SilentStoresElided++
	}
	e.foldReg(e.r1, e.r1Par, pair, data, rot)
	if wasDirty {
		e.foldReg(e.r2, e.r2Par, pair, old, rot)
	}
	e.C.MarkDirty(set, way, g*e.granuleWords, now)
	e.UpdateCheck(set, way, g, old, oldVerified)
}

// silentStore reports whether a store left the granule unchanged: every
// word of the verified old contents equals the resident (new) data. The
// per-word compare — not a folded XOR, whose multi-word cancellation
// could alias two opposite changes to zero — is the hardware's one-gate
// zero check on the old^new delta the incremental check-bit path already
// computes.
func silentStore(old, data []uint64) bool {
	if old == nil || len(old) != len(data) {
		return false
	}
	for j := range data {
		if old[j] != data[j] {
			return false
		}
	}
	return true
}

// OnRemoveDirty records the departure of dirty granule g (write-back or
// invalidation): its current contents are folded into R2 and the granule
// marked clean.
func (e *Engine) OnRemoveDirty(set, way, g int) {
	pair, rot := e.geomOf(set, way, g)
	ln := e.C.Line(set, way)
	e.foldReg(e.r2, e.r2Par, pair, e.GranuleData(ln, g), rot)
	e.C.MarkClean(set, way, g)
}

// OnEvictBlock removes every dirty granule of a departing block.
func (e *Engine) OnEvictBlock(set, way int) {
	ln := e.C.Line(set, way)
	for g, d := range ln.Dirty {
		if d {
			e.OnRemoveDirty(set, way, g)
		}
	}
}

// DirtyXor returns R1 ^ R2 for a pair: the XOR of the rotated images of
// every dirty granule the pair protects (the paper's core invariant).
func (e *Engine) DirtyXor(pair int) []uint64 {
	out := make([]uint64, e.granuleWords)
	for j := range out {
		out[j] = e.r1[pair][j] ^ e.r2[pair][j]
	}
	return out
}

// dirtyXorFromCache recomputes, per pair, the XOR of the rotated images of
// all dirty granules currently resident — by sweeping the arrays.
func (e *Engine) dirtyXorFromCache() [][]uint64 {
	acc := make([][]uint64, e.Cfg.RegisterPairs)
	for p := range acc {
		acc[p] = make([]uint64, e.granuleWords)
	}
	e.C.ForEachDirtyGranule(func(set, way, g int, ln *cache.Line) {
		class := e.ClassOf(set, way, g)
		fold(acc[e.Cfg.PairOf(class)], e.GranuleData(ln, g), e.Cfg.RotationOf(class))
	})
	return acc
}

// CheckInvariant verifies R1 ^ R2 against a fresh sweep of the cache; it
// returns an error naming the first mismatching pair. Used by tests and by
// register scrubbing.
func (e *Engine) CheckInvariant() error {
	swept := e.dirtyXorFromCache()
	for p := 0; p < e.Cfg.RegisterPairs; p++ {
		want := e.DirtyXor(p)
		for j := range want {
			if swept[p][j] != want[j] {
				return fmt.Errorf("cppc: pair %d element %d: registers %#x, cache sweep %#x",
					p, j, want[j], swept[p][j])
			}
		}
	}
	return nil
}

// ScrubRegisters re-derives the register state from the cache contents
// (Sec. 4.9: recovering from a fault in R1 or R2 itself, valid provided no
// dirty word is simultaneously faulty). After scrubbing, R1 holds the
// dirty XOR and R2 is zero; the invariant R1^R2 is restored.
func (e *Engine) ScrubRegisters() {
	swept := e.dirtyXorFromCache()
	for p := range e.r1 {
		copy(e.r1[p], swept[p])
		for j := range e.r2[p] {
			e.r2[p][j] = 0
		}
	}
}

// FlipRegisterBits injects a fault into a register (for Sec. 4.9 tests).
// which selects R1 (1) or R2 (2).
func (e *Engine) FlipRegisterBits(pair, which, element int, mask uint64) {
	switch which {
	case 1:
		e.r1[pair][element] ^= mask
	case 2:
		e.r2[pair][element] ^= mask
	default:
		panic("cppc: which must be 1 or 2")
	}
}
