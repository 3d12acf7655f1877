// Package fault implements fault-injection campaigns against protected
// caches: temporal single/multi-bit upsets and spatial NxM multi-bit
// upsets placed on the physical array geometry. Outcomes are classified
// by golden comparison — every resident word is read back through the
// protection scheme and checked against what the program actually wrote:
//
//	Corrected: every value reads back right and no machine check fired
//	DUE:       the scheme detected a fault it could not repair (halt)
//	SDC:       a wrong value was returned silently — the worst case
//
// The campaigns cross-check the paper's analytical coverage claims: which
// spatial squares each CPPC configuration corrects (Secs. 4.6, 4.11), how
// the baselines fail, and the Sec. 4.7 aliasing miscorrection.
package fault

import (
	"cppc/internal/cache"
	"cppc/internal/geometry"
	"cppc/internal/lfrng"
	"cppc/internal/protect"
)

// Outcome classifies one injection trial.
type Outcome int

const (
	// Corrected: all data intact after the probe sweep (repaired, or the
	// fault was benign).
	Corrected Outcome = iota
	// DUE: detected unrecoverable error — the machine checked.
	DUE
	// SDC: silent data corruption — a load returned a wrong value.
	SDC
)

func (o Outcome) String() string {
	switch o {
	case Corrected:
		return "corrected"
	case DUE:
		return "DUE"
	case SDC:
		return "SDC"
	}
	return "unknown"
}

// Campaign drives one protected cache with a synthetic workload, injects
// faults, and classifies the result.
type Campaign struct {
	Ct     *protect.Controller
	Mem    *cache.Memory
	rng    *lfrng.Rand
	shadow goldenCopy // golden values of every word the program wrote
	now    uint64

	probeAddrs []uint64 // Probe's sweep scratch, reused across trials
}

// New builds a campaign around a controller and its backing memory. The
// workload and placement stream comes from the repo's lagged-Fibonacci
// generator (internal/lfrng), so campaign cells come out identical on
// every toolchain — a requirement for the disk cell store, which keeps
// cells across rebuilds.
func New(ct *protect.Controller, mem *cache.Memory, seed int64) *Campaign {
	c := new(Campaign)
	c.Reset(ct, mem, seed)
	return c
}

// Reset re-points a reusable campaign shell at a fresh controller: the
// rng is reseeded in place (its ~5KB state is the single biggest
// per-trial allocation), the shadow is emptied but keeps its pages, and
// the probe scratch keeps its capacity. A reset shell behaves
// bit-identically to a freshly New'd campaign — the trial executor's
// per-worker arenas rely on this.
func (c *Campaign) Reset(ct *protect.Controller, mem *cache.Memory, seed int64) {
	c.Ct, c.Mem = ct, mem
	if c.rng == nil {
		c.rng = lfrng.New(seed)
	} else {
		c.rng.Seed(seed)
	}
	c.shadow.reset()
	c.now = 0
}

// Populate issues n random loads and stores over footprintBytes,
// populating the cache with a realistic mix of clean and dirty data.
func (c *Campaign) Populate(n int, footprintBytes int) {
	for i := 0; i < n; i++ {
		c.now++
		addr := uint64(c.rng.Intn(footprintBytes/8)) * 8
		if c.rng.Intn(2) == 0 {
			v := c.rng.Uint64()
			c.shadow.store(addr, v)
			c.Ct.Store(addr, v, c.now)
		} else {
			c.Ct.Load(addr, c.now)
		}
	}
}

// Store writes a word-aligned address through the campaign, keeping the
// shadow in sync.
func (c *Campaign) Store(addr, v uint64) {
	c.now++
	c.shadow.store(addr, v)
	c.Ct.Store(addr, v, c.now)
}

// expected is the golden value of a word.
func (c *Campaign) expected(addr uint64) uint64 {
	if v, ok := c.shadow.load(addr); ok {
		return v
	}
	return c.Mem.ReadWord(addr)
}

// goldenCopy is a trial's reference copy: the value of every word the
// program wrote, indexed by word-aligned address. An entry carries a
// written flag because the table reads absent words as the zero
// goldenWord, and a written zero must stay distinguishable from a word
// the program never wrote.
type goldenCopy struct{ words cache.PageTable[goldenWord] }

type goldenWord struct {
	v       uint64
	written bool
}

func (g *goldenCopy) store(addr, v uint64) { g.words.Set(addr>>3, goldenWord{v, true}) }

// load returns the golden value at addr, and false if it was never
// written.
func (g *goldenCopy) load(addr uint64) (uint64, bool) {
	w := g.words.Get(addr >> 3)
	return w.v, w.written
}

// reset forgets every word, keeping the pages for the next trial.
func (g *goldenCopy) reset() { g.words.Reset() }

// InjectWord flips mask bits in the stored copy of addr, if resident.
// Reports whether anything was flipped.
func (c *Campaign) InjectWord(addr, mask uint64) bool {
	set, way := c.Ct.C.Probe(addr)
	if way < 0 {
		return false
	}
	_, _, word := c.Ct.C.Decompose(addr)
	c.Ct.C.FlipBits(set, way, word, mask)
	return true
}

// InjectSpatial flips an HxW square anchored at a random location of the
// physical array, restricted to valid lines; it returns the number of
// flipped cells (0 if the placement only hit invalid lines).
func (c *Campaign) InjectSpatial(h, w int) int {
	geom := c.Ct.C.Geom
	row := c.rng.Intn(geom.Rows() - h + 1)
	col := c.rng.Intn(geom.RowBits() - w + 1)
	return c.InjectSpatialAt(geometry.SpatialFault{Row: row, BitCol: col, Height: h, Width: w})
}

// InjectSpatialAt places a specific spatial fault; invalid lines are
// immune (no stored charge to disturb semantics are not modeled — a cell
// in an invalid line simply has no architectural effect, so we skip it).
func (c *Campaign) InjectSpatialAt(f geometry.SpatialFault) int {
	flipped := 0
	for _, fl := range c.Ct.C.Geom.Flips(f) {
		if !c.Ct.C.Line(fl.Set, fl.Way).Valid {
			continue
		}
		c.Ct.C.FlipBits(fl.Set, fl.Way, fl.Word, fl.Mask)
		flipped += popcount(fl.Mask)
	}
	return flipped
}

func popcount(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// Probe reads back every word of every valid line through the protection
// scheme and classifies the campaign outcome.
func (c *Campaign) Probe() Outcome {
	addrs := c.probeAddrs[:0]
	c.Ct.C.ForEachValid(func(set, way int, ln *cache.Line) {
		base := c.Ct.C.BlockAddr(set, way)
		for w := 0; w < c.Ct.C.Cfg.BlockWords(); w++ {
			addrs = append(addrs, base+uint64(w*8))
		}
	})
	c.probeAddrs = addrs // keep the grown capacity for the next trial
	sdc := false
	for _, a := range addrs {
		c.now++
		res := c.Ct.Load(a, c.now)
		if c.Ct.Halted {
			return DUE
		}
		if res.Value != c.expected(a) {
			sdc = true
		}
	}
	if sdc {
		return SDC
	}
	return Corrected
}
