package cache

import (
	"sync"

	"cppc/internal/lfrng"
)

// The fault plane models faults that live in the physical array rather
// than in the stored values: a stuck-at cell reads as its stuck value
// no matter what was written over it, and an intermittent cell flickers
// with some probability each time the array is consulted. The plane is
// keyed by physical location (set, way, word) — not by tag — so a fault
// outlives eviction: whatever block is installed over a bad cell
// inherits it, exactly as in the field studies the campaigns mirror.
//
// The plane is passive storage; re-assertion happens when the protect
// controller calls ReassertGranule/ReassertLine at the top of its read
// paths (demand verify, block fetch, scrub, write-back verify). That
// placement is what makes lifetimes matter: a scheme may correct or
// refetch the data — the next consult re-applies the fault, so only
// schemes that can correct on *every* access survive a stuck cell.
//
// Campaign determinism: intermittent draws come from a plane-local
// lagged-Fibonacci generator (internal/lfrng) in cache-access order,
// which is fixed for a given workload, so armed trials are bit-stable
// across runs and toolchains.

// FaultLife distinguishes the persistent lifetimes the plane stores.
// (Transient faults are a one-shot FlipBits and never enter the plane.)
type FaultLife uint8

const (
	// LifeStuck: the masked bits always read back as the stuck value.
	LifeStuck FaultLife = iota
	// LifeIntermittent: each consult flips the masked bits with
	// probability reassert — the cell flickers.
	LifeIntermittent
)

type planeFault struct {
	word     int // word index within the block
	life     FaultLife
	mask     uint64
	stuckVal uint64  // LifeStuck: value of the masked bits
	reassert float64 // LifeIntermittent: per-consult flip probability
}

// FaultPlane holds the armed faults of one cache, keyed by flat line
// index (set*ways+way).
type FaultPlane struct {
	byLine map[int][]planeFault
	rng    lfrng.Rand
}

// planePool recycles FaultPlane shells: the embedded lagged-Fibonacci
// state is ~5KB, and field campaigns arm a fresh plane per trial.
// Release returns an armed cache's plane here; ArmPlane reseeds the rng
// and clears the fault map in place, which is behaviourally identical
// to a fresh plane.
var planePool = sync.Pool{New: func() any { return new(FaultPlane) }}

// ArmPlane attaches an (empty) fault plane; seed drives the
// intermittent-fault coin. Arming an already-armed cache resets it.
func (c *Cache) ArmPlane(seed int64) {
	p := planePool.Get().(*FaultPlane)
	if p.byLine == nil {
		p.byLine = make(map[int][]planeFault)
	} else {
		clear(p.byLine)
	}
	p.rng.Seed(seed)
	c.plane = p
}

// DisarmPlane removes the plane; the cache is back to fault-free.
func (c *Cache) DisarmPlane() { c.plane = nil }

// PlaneArmed reports whether a fault plane is attached.
func (c *Cache) PlaneArmed() bool { return c.plane != nil }

func (c *Cache) addPlaneFault(set, way int, f planeFault) {
	if c.plane == nil {
		panic("cache: AddFault on unarmed plane")
	}
	idx := set*c.nWays + way
	c.plane.byLine[idx] = append(c.plane.byLine[idx], f)
}

// AddStuckFault arms a stuck-at fault: the mask bits of the word at
// (set, way, word) read back as stuckVal&mask on every consult.
func (c *Cache) AddStuckFault(set, way, word int, mask, stuckVal uint64) {
	c.addPlaneFault(set, way, planeFault{word: word, life: LifeStuck, mask: mask, stuckVal: stuckVal & mask})
}

// AddIntermittentFault arms a flickering fault: each consult of the
// line XORs mask into the word with probability reassert.
func (c *Cache) AddIntermittentFault(set, way, word int, mask uint64, reassert float64) {
	c.addPlaneFault(set, way, planeFault{word: word, life: LifeIntermittent, mask: mask, reassert: reassert})
}

// reassert applies one fault to the line's stored data.
func (p *FaultPlane) reassert(ln *Line, f *planeFault) {
	switch f.life {
	case LifeStuck:
		ln.Data[f.word] = ln.Data[f.word]&^f.mask | f.stuckVal
	case LifeIntermittent:
		if p.rng.Float64() < f.reassert {
			ln.Data[f.word] ^= f.mask
		}
	}
}

// ReassertGranule re-applies every armed fault whose word lies in
// granule g of (set, way). Called by the controller before a granule
// verify. The wrapper stays under the inlining budget so an unarmed
// plane costs the read path exactly one inlined nil check.
func (c *Cache) ReassertGranule(set, way, g int) {
	if c.plane != nil {
		c.reassertGranule(set, way, g)
	}
}

func (c *Cache) reassertGranule(set, way, g int) {
	fs := c.plane.byLine[set*c.nWays+way]
	if len(fs) == 0 {
		return
	}
	ln := &c.lines[set*c.nWays+way]
	if !ln.Valid {
		return
	}
	lo, hi := g*c.granuleWords, (g+1)*c.granuleWords
	for i := range fs {
		if f := &fs[i]; f.word >= lo && f.word < hi {
			c.plane.reassert(ln, f)
		}
	}
}

// ReassertLine re-applies every armed fault on (set, way). Called by
// the controller before whole-line reads (block fetch, write-back);
// inlined to a nil check when the plane is unarmed.
func (c *Cache) ReassertLine(set, way int) {
	if c.plane != nil {
		c.reassertLine(set, way)
	}
}

func (c *Cache) reassertLine(set, way int) {
	fs := c.plane.byLine[set*c.nWays+way]
	if len(fs) == 0 {
		return
	}
	ln := &c.lines[set*c.nWays+way]
	if !ln.Valid {
		return
	}
	for i := range fs {
		c.plane.reassert(ln, &fs[i])
	}
}
