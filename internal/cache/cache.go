package cache

import (
	"fmt"
	"math/bits"
	"sync"

	"cppc/internal/geometry"
)

// Line is one cache block: tag/state plus real data contents. Check bits
// are stored per word and are opaque to the cache — the protection scheme
// owns their encoding.
type Line struct {
	Tag   uint64
	Valid bool
	Data  []uint64 // BlockWords() words of real contents
	Check []uint64 // per-word check bits (scheme-defined; may be unused)
	Dirty []bool   // per dirty granule (Granules() entries)

	// lastDirtyAccess[g] is the cycle of the previous access to dirty
	// granule g, for the Table 2 Tavg measurement.
	lastDirtyAccess []uint64
}

// DirtyAny reports whether any granule of the line is dirty.
func (ln *Line) DirtyAny() bool {
	for _, d := range ln.Dirty {
		if d {
			return true
		}
	}
	return false
}

// Cache is the tag+data array. All policy (miss handling, protection,
// write-back ordering) is driven from outside via the primitives below.
type Cache struct {
	Cfg    Config
	Geom   geometry.Layout
	sets   [][]Line
	lines  []Line // flat backing of sets, indexed set*nWays+way
	ar     *arena // pooled wrapper the backing arrays came from, if any
	lruClk uint64

	// Probe/Victim-path mirrors of per-line state, flat-indexed
	// set*nWays+way: scanning a set touches one or two cache lines instead
	// of one fat Line struct per way. tags/valids are maintained by
	// Install/Invalidate; lrus (higher = more recently used) by Touch.
	tags   []uint64
	valids []bool
	lrus   []uint64

	// Derived geometry, cached at construction: the Config methods divide
	// on every call, and Sets()/Granules() sit on the per-access hot path
	// (address decomposition, granule indexing, scrub/verify loops).
	nSets        int
	nWays        int
	blockWords   int
	granules     int    // granules per block
	granuleWords int    // == Cfg.DirtyGranuleWords
	blockBytes   uint64 // == Cfg.BlockBytes
	setMask      uint64 // nSets-1 (Validate guarantees power-of-two sets)
	setShift     uint   // log2(nSets)
	blockShift   uint   // log2(blockBytes); valid only when blockPow2
	blockPow2    bool   // block size is a power of two (32B in all Table 1 configs)
	granShift    uint   // log2(granuleWords); valid only when granPow2
	granPow2     bool

	// Tavg / dirty-occupancy accounting (Table 2).
	dirtyGranules   int     // currently dirty granules
	dirtySamples    uint64  // number of occupancy samples
	dirtyAccum      float64 // sum of dirty fractions over samples
	tavgSum         uint64  // sum of intervals between accesses to dirty granules
	tavgCount       uint64  // number of such intervals
	totalGranules   int
	granuleSizeBits int

	// One-entry probe memo. Every memory instruction probes the same
	// address twice — once to plan port usage (PlanLoadVictimRead /
	// PlanStoreRBW), once inside the controller's ensure — and the
	// coherence layer's lazy sharer reconciliation adds a third. The memo
	// answers the repeats with a compare instead of a set scan. mut is
	// bumped by every tag/valid mutation (Install, Invalidate); a stale
	// memo can therefore never be returned. New seeds mut=1 so the
	// zero-valued memo (tag 0, set 0, way 0) can never match first.
	mut      uint64
	probeMut uint64
	probeTag uint64
	probeSet int
	probeWay int

	// plane, when non-nil, is the armed physical fault plane (plane.go):
	// persistent stuck-at / intermittent cells the controller re-asserts
	// on every read path. Nil in every normal simulation — the nil check
	// is the only cost the hook adds to unfaulted runs.
	plane *FaultPlane
}

// arena bundles one geometry's backing arrays (line structs plus the
// probe mirrors; the data/check/dirty payloads stay alive through the Line
// slice headers). Zeroing a 2MB level's arrays dominates short
// simulations, so Release recycles arenas through a per-geometry pool and
// New resets only what gates observable behaviour: an invalid line is
// never read before Install and the scheme's OnFill rewrite its data,
// check bits and dirty state.
type arena struct {
	lines  []Line
	sets   [][]Line
	tags   []uint64
	valids []bool
	lrus   []uint64
}

// nWays is part of the key because the arena now carries the per-set
// slice headers: two geometries with the same line count but different
// associativity must not swap arenas.
type arenaKey struct{ nLines, nWays, blockWords, granules int }

var arenaPools sync.Map // arenaKey -> *sync.Pool of *arena

// Release returns the cache's backing arrays to the construction pool for
// reuse by a future New of the same geometry. The cache — including any
// Line pointers obtained from it — must not be used afterwards.
func (c *Cache) Release() {
	if c.lines == nil {
		return
	}
	key := arenaKey{len(c.lines), c.nWays, c.blockWords, c.granules}
	p, _ := arenaPools.LoadOrStore(key, new(sync.Pool))
	a := c.ar
	if a == nil {
		a = new(arena)
	}
	*a = arena{lines: c.lines, sets: c.sets, tags: c.tags, valids: c.valids, lrus: c.lrus}
	p.(*sync.Pool).Put(a)
	c.lines, c.sets, c.tags, c.valids, c.lrus, c.ar = nil, nil, nil, nil, nil, nil
	if c.plane != nil {
		planePool.Put(c.plane)
		c.plane = nil
	}
}

// New builds an empty cache from a validated config.
func New(cfg Config) *Cache {
	cfg, err := cfg.Validate()
	if err != nil {
		panic(err)
	}
	c := &Cache{
		Cfg:             cfg,
		Geom:            cfg.Layout(),
		nSets:           cfg.Sets(),
		nWays:           cfg.Ways,
		blockWords:      cfg.BlockWords(),
		granules:        cfg.Granules(),
		granuleWords:    cfg.DirtyGranuleWords,
		blockBytes:      uint64(cfg.BlockBytes),
		totalGranules:   cfg.Sets() * cfg.Ways * cfg.Granules(),
		granuleSizeBits: cfg.DirtyGranuleWords * 64,
	}
	c.mut = 1
	c.setMask = uint64(c.nSets - 1)
	c.setShift = uint(bits.TrailingZeros64(uint64(c.nSets)))
	if c.blockBytes&(c.blockBytes-1) == 0 {
		c.blockPow2 = true
		c.blockShift = uint(bits.TrailingZeros64(c.blockBytes))
	}
	if gw := uint64(c.granuleWords); gw&(gw-1) == 0 {
		c.granPow2 = true
		c.granShift = uint(bits.TrailingZeros64(gw))
	}
	nLines := c.nSets * c.nWays
	bw, ng := c.blockWords, c.granules
	if p, ok := arenaPools.Load(arenaKey{nLines, c.nWays, bw, ng}); ok {
		if a, _ := p.(*sync.Pool).Get().(*arena); a != nil {
			c.ar = a
			c.lines, c.sets, c.tags, c.valids, c.lrus = a.lines, a.sets, a.tags, a.valids, a.lrus
			// Install/Invalidate keep ln.Valid and the flat valids mirror
			// in lockstep, so only lines the previous life actually used
			// need their Valid cleared — a short run through a big level
			// touches a tiny fraction of it, where the old whole-array
			// walk dragged the entire line array (tens of MB for an L3)
			// through the heap per construction.
			for i, v := range c.valids {
				if v {
					c.lines[i].Valid = false
				}
			}
			clear(c.valids)
			return c
		}
	}
	c.sets = make([][]Line, c.nSets)
	// One backing array per field, subsliced per line: construction cost is
	// a handful of allocations instead of four per line, and line payloads
	// end up contiguous in memory.
	c.tags = make([]uint64, nLines)
	c.valids = make([]bool, nLines)
	c.lrus = make([]uint64, nLines)
	lines := make([]Line, nLines)
	data := make([]uint64, nLines*bw)
	check := make([]uint64, nLines*bw)
	dirty := make([]bool, nLines*ng)
	lastAcc := make([]uint64, nLines*ng)
	for i := range lines {
		lines[i] = Line{
			Data:            data[i*bw : (i+1)*bw : (i+1)*bw],
			Check:           check[i*bw : (i+1)*bw : (i+1)*bw],
			Dirty:           dirty[i*ng : (i+1)*ng : (i+1)*ng],
			lastDirtyAccess: lastAcc[i*ng : (i+1)*ng : (i+1)*ng],
		}
	}
	c.lines = lines
	for s := range c.sets {
		c.sets[s] = lines[s*c.nWays : (s+1)*c.nWays : (s+1)*c.nWays]
	}
	return c
}

// Cached geometry accessors: identical to the Cfg methods of the same
// names, without the per-call division.
func (c *Cache) Sets() int         { return c.nSets }
func (c *Cache) Ways() int         { return c.nWays }
func (c *Cache) BlockWords() int   { return c.blockWords }
func (c *Cache) Granules() int     { return c.granules }
func (c *Cache) GranuleWords() int { return c.granuleWords }

// GranuleOf maps a word index within a block to its dirty granule.
func (c *Cache) GranuleOf(word int) int {
	if c.granPow2 {
		return word >> c.granShift
	}
	return word / c.granuleWords
}

// Decompose splits a byte address into block tag, set index and word index
// within the block.
func (c *Cache) Decompose(addr uint64) (tag uint64, set, word int) {
	var block, off uint64
	if c.blockPow2 {
		block = addr >> c.blockShift
		off = addr & (c.blockBytes - 1)
	} else {
		block = addr / c.blockBytes
		off = addr % c.blockBytes
	}
	set = int(block & c.setMask)
	tag = block >> c.setShift
	word = int(off >> 3)
	return tag, set, word
}

// BlockAddr reconstructs the byte address of the first word of a resident
// line.
func (c *Cache) BlockAddr(set, way int) uint64 {
	ln := c.Line(set, way)
	return (ln.Tag<<c.setShift + uint64(set)) * c.blockBytes
}

// Probe looks up addr without changing any state. way is -1 on a miss.
func (c *Cache) Probe(addr uint64) (set, way int) {
	tag, s, _ := c.Decompose(addr)
	return s, c.ProbeTS(tag, s)
}

// ProbeTS is Probe for a pre-decomposed (tag, set) — callers that already
// split the address skip a second Decompose.
func (c *Cache) ProbeTS(tag uint64, s int) (way int) {
	if c.probeMut == c.mut && c.probeTag == tag && c.probeSet == s {
		return c.probeWay
	}
	row := s * c.nWays
	way = -1
	for w := 0; w < c.nWays; w++ {
		if c.valids[row+w] && c.tags[row+w] == tag {
			way = w
			break
		}
	}
	c.probeMut, c.probeTag, c.probeSet, c.probeWay = c.mut, tag, s, way
	return way
}

// Line returns the line at (set, way). The pointer stays valid for the
// lifetime of the cache.
func (c *Cache) Line(set, way int) *Line { return &c.lines[set*c.nWays+way] }

// PeekWord returns the stored word at addr if its block is resident,
// without touching replacement or sampling state (checker use).
func (c *Cache) PeekWord(addr uint64) (uint64, bool) {
	set, way := c.Probe(addr)
	if way < 0 {
		return 0, false
	}
	_, _, word := c.Decompose(addr)
	return c.Line(set, way).Data[word], true
}

// Touch marks (set, way) most recently used.
func (c *Cache) Touch(set, way int) {
	c.lruClk++
	c.lrus[set*c.nWays+way] = c.lruClk
}

// Victim picks the replacement way in a set: an invalid way if one exists,
// else true-LRU.
func (c *Cache) Victim(set int) int {
	row := set * c.nWays
	best, bestLRU := 0, ^uint64(0)
	for w := 0; w < c.nWays; w++ {
		if !c.valids[row+w] {
			return w
		}
		if l := c.lrus[row+w]; l < bestLRU {
			best, bestLRU = w, l
		}
	}
	return best
}

// Install replaces the line at (set, way) with a clean block for addr,
// copying data. Eviction of the previous occupant is the caller's job.
func (c *Cache) Install(set, way int, addr uint64, data []uint64) {
	tag, s, _ := c.Decompose(addr)
	if s != set {
		panic(fmt.Sprintf("cache %s: installing addr %#x into wrong set %d (want %d)", c.Cfg.Name, addr, set, s))
	}
	ln := &c.sets[set][way]
	if ln.Valid {
		c.noteDirtyDelta(ln, -1)
	}
	ln.Tag = tag
	ln.Valid = true
	c.mut++
	c.tags[set*c.nWays+way] = tag
	c.valids[set*c.nWays+way] = true
	copy(ln.Data, data)
	for g := range ln.Dirty {
		ln.Dirty[g] = false
		ln.lastDirtyAccess[g] = 0
	}
	c.Touch(set, way)
}

// Invalidate drops the line; dirty contents are discarded (the caller must
// have written them back first if needed).
func (c *Cache) Invalidate(set, way int) {
	ln := &c.sets[set][way]
	if ln.Valid {
		c.noteDirtyDelta(ln, -1)
	}
	ln.Valid = false
	c.mut++
	c.valids[set*c.nWays+way] = false
}

// noteDirtyDelta updates the dirty-granule population when a whole line
// enters/leaves (sign -1 removes the line's dirty granules).
func (c *Cache) noteDirtyDelta(ln *Line, sign int) {
	for _, d := range ln.Dirty {
		if d {
			c.dirtyGranules += sign
		}
	}
}

// MarkDirty sets the dirty bit of the granule containing word `word`,
// maintaining the dirty population. now is the current cycle, used for
// Tavg accounting.
func (c *Cache) MarkDirty(set, way, word int, now uint64) {
	ln := &c.sets[set][way]
	g := c.GranuleOf(word)
	if !ln.Dirty[g] {
		ln.Dirty[g] = true
		c.dirtyGranules++
	}
	ln.lastDirtyAccess[g] = now
}

// MarkClean clears the dirty bit of granule g of the line.
func (c *Cache) MarkClean(set, way, g int) {
	ln := &c.sets[set][way]
	if ln.Dirty[g] {
		ln.Dirty[g] = false
		c.dirtyGranules--
	}
}

// TouchDirtyG records an access at cycle `now` to granule g of line ln
// for Tavg measurement: if the granule is dirty and was accessed before,
// the interval is accumulated.
func (c *Cache) TouchDirtyG(ln *Line, g int, now uint64) {
	if !ln.Dirty[g] {
		return
	}
	if last := ln.lastDirtyAccess[g]; last != 0 && now > last {
		c.tavgSum += now - last
		c.tavgCount++
	}
	ln.lastDirtyAccess[g] = now
}

// SampleDirtyOccupancy records one sample of the dirty fraction (Table 2's
// "percentage of dirty data during program execution").
func (c *Cache) SampleDirtyOccupancy() {
	c.dirtySamples++
	c.dirtyAccum += float64(c.dirtyGranules) / float64(c.totalGranules)
}

// DirtyFraction returns the average sampled dirty fraction, or the current
// instantaneous fraction if no samples were taken.
func (c *Cache) DirtyFraction() float64 {
	if c.dirtySamples == 0 {
		return float64(c.dirtyGranules) / float64(c.totalGranules)
	}
	return c.dirtyAccum / float64(c.dirtySamples)
}

// DirtyGranuleCount returns the number of currently dirty granules.
func (c *Cache) DirtyGranuleCount() int { return c.dirtyGranules }

// Tavg returns the measured average interval (in cycles) between
// consecutive accesses to a dirty granule; 0 if never measured.
func (c *Cache) Tavg() float64 {
	if c.tavgCount == 0 {
		return 0
	}
	return float64(c.tavgSum) / float64(c.tavgCount)
}

// ResetSampling clears the dirty-occupancy and Tavg accumulators (used
// after cache warm-up so measurements cover only the steady state).
func (c *Cache) ResetSampling() {
	c.dirtySamples = 0
	c.dirtyAccum = 0
	c.tavgSum = 0
	c.tavgCount = 0
}

// ForEachValid visits every valid line.
func (c *Cache) ForEachValid(fn func(set, way int, ln *Line)) {
	for s := range c.sets {
		for w := range c.sets[s] {
			if ln := &c.sets[s][w]; ln.Valid {
				fn(s, w, ln)
			}
		}
	}
}

// ForEachDirtyGranule visits every dirty granule of every valid line.
func (c *Cache) ForEachDirtyGranule(fn func(set, way, granule int, ln *Line)) {
	c.ForEachValid(func(set, way int, ln *Line) {
		for g, d := range ln.Dirty {
			if d {
				fn(set, way, g, ln)
			}
		}
	})
}

// FlipBits XORs mask into the stored data word at (set, way, word) without
// touching check bits: a fault injection.
func (c *Cache) FlipBits(set, way, word int, mask uint64) {
	c.sets[set][way].Data[word] ^= mask
}

// FlipCheckBits XORs mask into the stored check bits at (set, way, word).
func (c *Cache) FlipCheckBits(set, way, word int, mask uint64) {
	c.sets[set][way].Check[word] ^= mask
}
