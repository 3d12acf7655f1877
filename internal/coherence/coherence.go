// Package coherence implements a bus/directory-style write-invalidate MSI
// protocol over N private L1 caches and a shared L2 — the substrate for
// the paper's Sec. 7 multiprocessor hypothesis: "In invalidate protocols,
// since many dirty blocks may be invalidated, the number of
// read-before-write operations might decrease which might lead to better
// efficiency in multiprocessor CPPCs."
//
// The protocol maps directly onto the existing protection machinery:
//
//   - a block is Modified in the one L1 whose copy has dirty granules;
//   - Shared copies are valid-and-clean;
//   - a remote read forces the owner to flush (write back, downgrade to
//     Shared: Scheme.OnDowngrade folds the dirty data out of the CPPC
//     registers);
//   - a write invalidates every other copy (Controller.InvalidateBlock);
//     an invalidated Modified block folds its dirty data into R2 on the
//     way out, exactly like an eviction.
//
// Operations are globally ordered (the simulation is sequentially
// consistent), so a golden map is a valid checker.
package coherence

import (
	"fmt"
	"math/bits"

	"cppc/internal/cache"
	"cppc/internal/protect"
)

// Stats counts protocol events.
type Stats struct {
	BusReads                    uint64 // read misses served through the directory
	BusReadX                    uint64 // writes that had to claim ownership
	Invalidations               uint64 // copies killed by remote writes
	OwnerFlushes                uint64 // M->S downgrades forced by remote reads
	OwnerWritebackInvalidations uint64 // M copies killed by remote writes (dirty data folded out)
	BusBusyCycles               uint64 // cycles the bus/directory was reserved (timed runs)
}

// dirEntry tracks one block's global state. Sharers are a bitmask (one
// bit per core, so the system is capped at 64 cores) and entries are
// stored by value in a paged table indexed by block number: looking up
// or creating a block's state costs zero allocations and no hashing on
// the per-access path.
type dirEntry struct {
	sharers uint64 // bitmask of cores holding a valid copy
	owner   int16  // core holding the block Modified, or -1
	// seen marks a block some access has touched; the table reads an
	// untouched block as the zero entry, which lookup reports absent.
	seen bool
}

// Multiprocessor is N cores with private L1s over one shared L2.
type Multiprocessor struct {
	L1s []*protect.Controller
	L2  *protect.Controller
	Mem *cache.Memory

	// Timing prices the protocol events (see timing.go). The zero value
	// makes every protocol event free, which is the historical untimed
	// behaviour the functional tests rely on.
	Timing Timing

	dir     cache.PageTable[dirEntry] // indexed by block number
	Stats   Stats
	busFree uint64 // first cycle the bus/directory is free again (FCFS)

	blockShift uint // log2 of the L1 block size
}

// New builds an n-core system. l1cfg/l2cfg describe the caches; mkL1/mkL2
// build each level's protection.
func New(n int, l1cfg, l2cfg cache.Config, mkL1, mkL2 protect.Factory, memLatency int) *Multiprocessor {
	if n < 1 || n > 64 {
		panic(fmt.Sprintf("coherence: cores must be in [1,64], got %d", n))
	}
	mem := cache.NewMemory(l2cfg.BlockBytes, memLatency)
	l2c := cache.New(l2cfg)
	l2 := protect.NewController(l2c, mkL2(l2c), mem)
	m := &Multiprocessor{
		L2: l2, Mem: mem,
		blockShift: uint(bits.TrailingZeros64(uint64(l1cfg.BlockBytes))),
	}
	for i := 0; i < n; i++ {
		c := cache.New(l1cfg)
		m.L1s = append(m.L1s, protect.NewController(c, mkL1(c), l2))
	}
	return m
}

// Release returns the system's cache arrays, memory pages and directory
// pages to their construction pools for reuse by a future New of the
// same shape. The Multiprocessor — including its controllers, caches and
// ports — must not be used afterwards.
func (m *Multiprocessor) Release() {
	for _, l1 := range m.L1s {
		l1.C.Release()
	}
	m.L2.C.Release()
	m.Mem.Release()
	m.dir.Release()
}

// entry returns the directory state of the block holding addr, creating
// it (no sharers, no owner) on first touch. The access mutates the entry
// in place: nothing between this lookup and the access's end touches the
// directory, and pages never move.
func (m *Multiprocessor) entry(addr uint64) *dirEntry {
	e := m.dir.Ref(addr >> m.blockShift)
	if !e.seen {
		*e = dirEntry{owner: -1, seen: true}
	}
	return e
}

// lookup returns the directory state of the block holding addr, and
// false for a block no access has touched (the checker and peek paths,
// which must not create entries).
func (m *Multiprocessor) lookup(addr uint64) (dirEntry, bool) {
	e := m.dir.Get(addr >> m.blockShift)
	return e, e.seen
}

// reconcile brings the directory in line with silent L1 replacements: a
// core's copy may have been evicted by capacity pressure without a
// protocol event. Cheap probe-based lazy cleanup over the sharer bits.
func (m *Multiprocessor) reconcile(e *dirEntry, addr uint64) {
	for s := e.sharers; s != 0; s &= s - 1 {
		core := bits.TrailingZeros64(s)
		if _, way := m.L1s[core].C.Probe(addr); way < 0 {
			e.sharers &^= 1 << core
			if int(e.owner) == core {
				e.owner = -1
			}
		}
	}
}

// Read performs a load by `core` at addr (untimed entry point: protocol
// events are counted but cost nothing beyond the cache latencies).
func (m *Multiprocessor) Read(core int, addr, now uint64) protect.AccessResult {
	var res protect.AccessResult
	m.ReadInto(core, addr, now, &res)
	return res
}

// Write performs a store by `core` at addr (untimed entry point).
func (m *Multiprocessor) Write(core int, addr, val, now uint64) protect.AccessResult {
	var res protect.AccessResult
	m.WriteInto(core, addr, val, now, &res)
	return res
}

// ReadInto performs a load by `core` at addr. With a non-zero Timing the
// returned Latency includes bus-wait, bus-transaction, and owner-flush
// cycles on top of the local hierarchy's latency.
func (m *Multiprocessor) ReadInto(core int, addr, now uint64, res *protect.AccessResult) {
	e := m.entry(addr)
	// Pure local hit: the requester is already a sharer and its copy is
	// still resident, so no protocol event can fire and the entry cannot
	// change (reconcile only clears bits for silently evicted copies,
	// and every consumer of the sharer bits reconciles again before
	// using them — the cleanup is safely deferred).
	if e.sharers&(1<<core) != 0 {
		if _, way := m.L1s[core].C.Probe(addr); way >= 0 {
			m.L1s[core].LoadInto(addr, now, res)
			return
		}
	}
	m.reconcile(e, addr)
	extra := 0
	if e.sharers&(1<<core) == 0 {
		m.Stats.BusReads++
		extra = m.busAcquire(now, m.Timing.BusCycles)
		// A remote Modified copy must reach the L2 before we fetch.
		if e.owner >= 0 && int(e.owner) != core {
			if m.L1s[e.owner].FlushBlock(addr, now) {
				m.Stats.OwnerFlushes++
				extra += m.busExtend(m.Timing.OwnerFlushCycles)
			}
			e.owner = -1
		}
	}
	m.L1s[core].LoadInto(addr, now+uint64(extra), res)
	res.Latency += extra
	e.sharers |= 1 << core
}

// WriteInto performs a store by `core` at addr. With a non-zero Timing
// the returned Latency includes bus-wait, bus-transaction, invalidation,
// and owner-writeback cycles on top of the local hierarchy's latency.
func (m *Multiprocessor) WriteInto(core int, addr, val, now uint64, res *protect.AccessResult) {
	e := m.entry(addr)
	// Pure local hit: the requester already owns the block Modified and
	// its copy is resident. Ownership implies it was the only sharer, so
	// no invalidation, bus transaction or entry mutation can occur.
	if int(e.owner) == core {
		if _, way := m.L1s[core].C.Probe(addr); way >= 0 {
			m.L1s[core].StoreInto(addr, val, now, res)
			return
		}
	}
	m.reconcile(e, addr)
	extra := 0
	if int(e.owner) != core {
		m.Stats.BusReadX++
		extra = m.busAcquire(now, m.Timing.BusCycles)
		for s := e.sharers &^ (1 << core); s != 0; s &= s - 1 {
			other := bits.TrailingZeros64(s)
			wasOwner := int(e.owner) == other
			if m.L1s[other].InvalidateBlock(addr, now) {
				m.Stats.Invalidations++
				extra += m.busExtend(m.Timing.InvalidateCycles)
				if wasOwner {
					m.Stats.OwnerWritebackInvalidations++
					extra += m.busExtend(m.Timing.OwnerFlushCycles)
				}
			}
			e.sharers &^= 1 << other
		}
		e.owner = int16(core)
	}
	m.L1s[core].StoreInto(addr, val, now+uint64(extra), res)
	res.Latency += extra
	e.sharers |= 1 << core
}

// CheckCoherent verifies the single-writer/multi-reader invariant: at
// most one L1 holds any block dirty, and dirty copies match the directory
// owner.
func (m *Multiprocessor) CheckCoherent() error {
	type holder struct{ core, set, way int }
	dirtyHolders := map[uint64][]holder{}
	for i, l1 := range m.L1s {
		l1.C.ForEachValid(func(set, way int, ln *cache.Line) {
			if ln.DirtyAny() {
				b := l1.C.BlockAddr(set, way)
				dirtyHolders[b] = append(dirtyHolders[b], holder{i, set, way})
			}
		})
	}
	for b, hs := range dirtyHolders {
		if len(hs) > 1 {
			return fmt.Errorf("coherence: block %#x dirty in %d caches", b, len(hs))
		}
		if e, ok := m.lookup(b); ok && int(e.owner) != hs[0].core {
			return fmt.Errorf("coherence: block %#x dirty in core %d but owner is %d",
				b, hs[0].core, e.owner)
		}
	}
	return nil
}

// TotalL1Stats sums the cache statistics across cores.
func (m *Multiprocessor) TotalL1Stats() cache.Stats {
	var total cache.Stats
	for _, l1 := range m.L1s {
		total.Add(l1.Stats)
	}
	return total
}
