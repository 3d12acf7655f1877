package protect

import (
	"cppc/internal/cache"
)

// Controller drives one protected cache level: address decomposition,
// hit/miss handling, LRU, write-backs, fills, the protection hooks, and
// event statistics. It implements cache.Backing so levels stack.
type Controller struct {
	C      *cache.Cache
	Scheme Scheme
	// lv is Scheme's LineVerifier view, or nil: resolved once at
	// construction so the fetch path pays no per-call type assertion.
	lv    LineVerifier
	Next  cache.Backing
	Stats cache.Stats

	// sampleEvery controls dirty-occupancy sampling (Table 2); a sample
	// is taken every N accesses. 0 disables sampling. sampleLeft counts
	// down to the next sample (a decrement instead of a per-access modulo,
	// which is a hardware division).
	sampleEvery uint64
	sampleLeft  uint64
	accessCount uint64

	// Early write-back (the related-work technique of [2, 15], Sec. 2):
	// every ewInterval accesses, up to ewBatch dirty blocks are written
	// back and downgraded to clean, shrinking the vulnerable dirty
	// population at the cost of extra write-back traffic. 0 disables.
	ewInterval uint64
	ewBatch    int
	ewCursor   int // round-robin set scan position
	// EarlyWriteBacks counts blocks cleaned by the policy.
	EarlyWriteBacks uint64

	// Scrubbing: every scrubInterval accesses, scrubBatch granules are
	// verified (and repaired) in the background, round-robin. Scrubbing
	// shortens the window during which a latent fault can pair with a
	// second one — the Tavg term of the Sec. 6.3 reliability model.
	scrubInterval uint64
	scrubBatch    int
	scrubSet      int
	scrubWay      int
	scrubGranule  int
	// ScrubsPerformed counts granule verifications done by the scrubber.
	ScrubsPerformed uint64

	// writeThrough makes every store propagate to the next level
	// immediately, so lines never hold dirty data: the Sec. 1 baseline in
	// which plain parity is fully sufficient ("parity bits are very
	// effective in L1 write-through caches because they detect faults
	// recoverable from the L2 cache").
	writeThrough bool

	// Halted is set when a DUE occurred (the paper halts the program and
	// raises a machine check); the simulator surfaces it to the caller.
	Halted bool

	// Scratch buffers keeping the access hot path allocation-free. Each
	// has exactly one live use at a time: fillBuf holds fill data inside
	// ensure, refetchBuf/refetchOld live inside refetch, and oldBuf holds
	// the displaced old granule between its capture and the OnStore hook
	// (which must not retain it — see Scheme.OnStore). Calls into the
	// next level recurse into *that* controller's buffers, never back
	// into these.
	fillBuf    []uint64
	refetchBuf []uint64
	refetchOld []uint64
	oldBuf     []uint64
}

// NewController wires a cache, a scheme and a backing level together.
func NewController(c *cache.Cache, s Scheme, next cache.Backing) *Controller {
	ct := &Controller{
		C: c, Scheme: s, Next: next, sampleEvery: 256, sampleLeft: 256,
	}
	ct.lv, _ = s.(LineVerifier)
	// One backing array for the four scratch buffers: they are distinct
	// regions of it, so the aliasing rules in the field comments still hold.
	bw, gw := c.BlockWords(), c.GranuleWords()
	scratch := make([]uint64, 2*bw+2*gw)
	ct.fillBuf, scratch = scratch[:bw:bw], scratch[bw:]
	ct.refetchBuf, scratch = scratch[:bw:bw], scratch[bw:]
	ct.refetchOld, scratch = scratch[:gw:gw], scratch[gw:]
	ct.oldBuf = scratch
	return ct
}

// SetSampleInterval adjusts dirty-occupancy sampling (0 disables).
func (ct *Controller) SetSampleInterval(n uint64) {
	ct.sampleEvery = n
	ct.sampleLeft = n
}

// ResetStats zeroes the level's statistics, its occupancy sampling and
// the scheme's event counters (CPPC fold/recovery counts). It marks a
// measurement boundary: everything read afterwards covers exactly the
// accesses made afterwards. The event reset matters as much as the stats
// reset — fold counts that keep their warmup contribution inflate every
// CPPC energy ratio computed against post-warmup cache stats.
func (ct *Controller) ResetStats() {
	ct.Stats = cache.Stats{}
	ct.C.ResetSampling()
	if r, ok := ct.Scheme.(EventResetter); ok {
		r.ResetEvents()
	}
}

// SetWriteThrough switches the controller to write-through operation:
// stores update the cache and the next level together, and nothing is
// ever dirty.
func (ct *Controller) SetWriteThrough(on bool) { ct.writeThrough = on }

// AccessResult reports what one load or store did, for the timing and
// energy models.
type AccessResult struct {
	Hit          bool
	Value        uint64 // loaded value (loads only)
	Latency      int    // cycles: hit latency plus any miss penalty
	ReadPortOps  int    // data-array read-port operations used
	WritePortOps int    // data-array write-port operations used
	Fault        FaultStatus
	WroteBack    bool // a dirty victim was pushed to the next level
}

// SetEarlyWriteback enables the early write-back policy: every interval
// accesses, up to batch dirty blocks are cleaned. interval 0 disables.
func (ct *Controller) SetEarlyWriteback(interval uint64, batch int) {
	ct.ewInterval = interval
	ct.ewBatch = batch
}

func (ct *Controller) tick() {
	ct.accessCount++
	if ct.sampleEvery > 0 {
		if ct.sampleLeft--; ct.sampleLeft == 0 {
			ct.sampleLeft = ct.sampleEvery
			ct.C.SampleDirtyOccupancy()
		}
	}
	if ct.ewInterval > 0 && ct.accessCount%ct.ewInterval == 0 {
		ct.earlyWriteback(ct.accessCount)
	}
	if ct.scrubInterval > 0 && ct.accessCount%ct.scrubInterval == 0 {
		ct.scrub(ct.accessCount)
	}
}

// SetScrubbing enables the background scrubber: every interval accesses,
// batch granules are verified round-robin. interval 0 disables.
func (ct *Controller) SetScrubbing(interval uint64, batch int) {
	ct.scrubInterval = interval
	ct.scrubBatch = batch
}

// scrub verifies the next batch of granules in array order.
func (ct *Controller) scrub(now uint64) {
	var res AccessResult
	for i := 0; i < ct.scrubBatch; i++ {
		if ct.C.Line(ct.scrubSet, ct.scrubWay).Valid {
			ct.ScrubsPerformed++
			ct.C.ReassertGranule(ct.scrubSet, ct.scrubWay, ct.scrubGranule)
			ct.check(ct.scrubSet, ct.scrubWay, ct.scrubGranule, now, &res)
		}
		ct.scrubGranule++
		if ct.scrubGranule == ct.C.Granules() {
			ct.scrubGranule = 0
			ct.scrubWay++
			if ct.scrubWay == ct.C.Ways() {
				ct.scrubWay = 0
				ct.scrubSet = (ct.scrubSet + 1) % ct.C.Sets()
			}
		}
	}
}

// earlyWriteback scans sets round-robin and cleans up to ewBatch dirty
// blocks.
func (ct *Controller) earlyWriteback(now uint64) {
	cleaned := 0
	sets := ct.C.Sets()
	for scanned := 0; scanned < sets && cleaned < ct.ewBatch; scanned++ {
		set := ct.ewCursor
		ct.ewCursor = (ct.ewCursor + 1) % sets
		for way := 0; way < ct.C.Cfg.Ways && cleaned < ct.ewBatch; way++ {
			ln := ct.C.Line(set, way)
			if !ln.Valid || !ln.DirtyAny() {
				continue
			}
			var res AccessResult
			ct.writeBack(set, way, true, now, &res)
			ct.EarlyWriteBacks++
			cleaned++
		}
	}
}

// ensure brings the block holding addr into the cache, handling
// eviction/write-back and fill hooks; it reports whether it hit and the
// accumulated miss penalty and port usage.
func (ct *Controller) ensure(addr uint64, now uint64, res *AccessResult) (set, way int) {
	tag, set, _ := ct.C.Decompose(addr)
	return set, ct.ensureWay(addr, tag, set, now, res)
}

// ensureWay is ensure for a pre-decomposed address: the entry points
// decompose once and share the (tag, set, word) split with the rest of
// the access path.
func (ct *Controller) ensureWay(addr, tag uint64, set int, now uint64, res *AccessResult) (way int) {
	way = ct.C.ProbeTS(tag, set)
	if way >= 0 {
		ct.C.Touch(set, way)
		res.Hit = true
		return way
	}
	ct.Stats.Misses++
	way = ct.C.Victim(set)
	ln := ct.C.Line(set, way)

	if ct.Scheme.FillNeedsOldLine() && ln.Valid {
		// Two-dimensional parity must read the whole victim line to take
		// it out of the vertical parity row (Sec. 2): one wide array read
		// (the energy of a full line, counted in RBWOnMissLines).
		ct.Stats.ReadBeforeWrite++
		ct.Stats.RBWOnMissLines++
		res.ReadPortOps++
	}
	if ln.Valid && ln.DirtyAny() {
		ct.writeBack(set, way, false, now, res)
		res.WroteBack = true
	} else if ln.Valid {
		ct.Scheme.OnEvict(set, way, now)
	}

	res.Latency += ct.Next.FetchBlock(addr, ct.fillBuf, now)
	ct.C.Install(set, way, addr, ct.fillBuf)
	ct.Scheme.OnFill(set, way)
	ct.Stats.Fills++
	res.WritePortOps++ // one wide array write fills the line
	return way
}

// refetch refreshes the *clean* granules of a resident block from the
// next level (the clean-fault recovery path: "converted to a miss",
// Sec. 3.2). Dirty granules hold the only copy of their data and are left
// untouched.
func (ct *Controller) refetch(set, way int, now uint64) int {
	addr := ct.C.BlockAddr(set, way)
	lat := ct.Next.FetchBlock(addr, ct.refetchBuf, now)
	ln := ct.C.Line(set, way)
	gw := ct.C.GranuleWords()
	for g := 0; g < ct.C.Granules(); g++ {
		if ln.Dirty[g] {
			continue
		}
		old := ct.refetchOld[:gw]
		copy(old, ln.Data[g*gw:(g+1)*gw])
		copy(ln.Data[g*gw:(g+1)*gw], ct.refetchBuf[g*gw:(g+1)*gw])
		ct.Scheme.OnRefetchGranule(set, way, g, old)
	}
	ct.Stats.CleanRefetches++
	return lat
}

// writeBack pushes the block at (set, way) to the next level. Every
// granule passes the fault checker first: the write-back read is a read
// like any other, and silently writing back a corrupted dirty granule
// converts a detectable fault into an SDC at the next level — and so does
// a corrupted *clean* granule riding along in the block-granular
// write-back (a clean faulty granule is refreshed from the next level
// first). The scheme then releases the block's dirty state: OnDowngrade
// when it stays resident (now clean), OnEvict when it leaves.
func (ct *Controller) writeBack(set, way int, stays bool, now uint64, res *AccessResult) {
	for g := 0; g < ct.C.Granules(); g++ {
		ct.C.ReassertGranule(set, way, g)
		ct.check(set, way, g, now, res)
	}
	if stays {
		ct.Scheme.OnDowngrade(set, way, now)
	} else {
		ct.Scheme.OnEvict(set, way, now)
	}
	ct.Next.WriteBackBlock(ct.C.BlockAddr(set, way), ct.C.Line(set, way).Data, now)
	ct.Stats.WriteBack++
}

// check runs the detection/recovery path for granule g, whose data is
// being read — by a demand load, a read-before-write, a sub-word
// read-modify-write, a write-back, a block fetch or the scrubber. Any
// read must pass the checker: folding a latently corrupted old value
// into the registers would poison them silently. A DUE halts the level,
// a clean fault is refetched from the next level, and a dirty fault the
// scheme corrected in place is only counted.
//
// Persistent faults live in the array, not the stored value, so every
// caller consults the fault plane first (ReassertGranule, or
// ReassertLine once per block fetch): a stuck-at or flickering cell
// re-corrupts whatever an earlier correction, refetch or scrub wrote.
func (ct *Controller) check(set, way, g int, now uint64, res *AccessResult) {
	status, needRefetch := ct.Scheme.VerifyGranule(set, way, g, now)
	res.Fault = status
	switch {
	case status == FaultDUE:
		ct.Stats.FaultsDetected++
		ct.Stats.UnrecoverableDUE++
		ct.Halted = true
	case needRefetch:
		ct.Stats.FaultsDetected++
		res.Latency += ct.refetch(set, way, now)
		res.Fault = FaultCorrectedClean
		ct.Stats.FaultsCorrected++
	case status != FaultNone:
		ct.Stats.FaultsDetected++
		ct.Stats.FaultsCorrected++
	}
}

// Load performs a word load at addr.
func (ct *Controller) Load(addr, now uint64) AccessResult {
	var res AccessResult
	ct.LoadInto(addr, now, &res)
	return res
}

// LoadInto is Load writing into a caller-provided result, saving the
// by-value struct copy in the core's per-instruction loop. *res must be
// zeroed.
func (ct *Controller) LoadInto(addr, now uint64, res *AccessResult) {
	ct.tick()
	ct.Stats.Loads++
	res.Latency = ct.C.Cfg.HitLatencyCycles
	res.ReadPortOps++
	tag, set, word := ct.C.Decompose(addr)
	way := ct.ensureWay(addr, tag, set, now, res)
	if res.Hit {
		ct.Stats.LoadHits++
	}
	g := ct.C.GranuleOf(word)
	ln := ct.C.Line(set, way)
	ct.C.TouchDirtyG(ln, g, now)

	ct.C.ReassertGranule(set, way, g)
	ct.check(set, way, g, now, res)
	res.Value = ln.Data[word]
}

// Store performs a word store at addr (write-allocate).
func (ct *Controller) Store(addr, val, now uint64) AccessResult {
	var res AccessResult
	ct.StoreInto(addr, val, now, &res)
	return res
}

// StoreInto is Store writing into a caller-provided result; *res must be
// zeroed.
func (ct *Controller) StoreInto(addr, val, now uint64, res *AccessResult) {
	ct.store(addr, val, ^uint64(0), now, res)
}

// StoreSub performs a sub-word store of `size` bytes (1, 2, 4 or 8) at
// addr, which must be size-aligned. Per-word check bits force a
// read-modify-write of the containing 64-bit word (Sec. 3.1: "On a byte
// Store, the new byte is XORed with the corresponding byte of R1 ... and
// the old byte ... with R2"); algebraically, folding the merged old/new
// words gives the registers the identical R1^R2 contribution, so the
// scheme hooks see an ordinary word store of the merged value.
func (ct *Controller) StoreSub(addr, val uint64, size int, now uint64) AccessResult {
	switch size {
	case 1, 2, 4, 8:
	default:
		panic("protect: sub-word store size must be 1, 2, 4 or 8")
	}
	if addr%uint64(size) != 0 {
		panic("protect: misaligned sub-word store")
	}
	shift := uint(addr&7) * 8
	var res AccessResult
	// 1<<64 is 0 for a uint64, so size 8 yields the all-ones word mask.
	ct.store(addr&^7, val<<shift, (uint64(1)<<(uint(size)*8)-1)<<shift, now, &res)
	return res
}

// store is the one store body: it writes the bits of val selected by mask
// into the word at addr (write-allocate). The old granule is read first
// when the scheme needs a read-before-write or when mask leaves part of
// the word in place (the sub-word read-modify-write); one read serves
// both. *res must be zeroed.
func (ct *Controller) store(addr, val, mask, now uint64, res *AccessResult) {
	ct.tick()
	ct.Stats.Stores++
	res.Latency = ct.C.Cfg.HitLatencyCycles
	res.WritePortOps++
	tag, set, word := ct.C.Decompose(addr)
	way := ct.ensureWay(addr, tag, set, now, res)
	if res.Hit {
		ct.Stats.StoreHits++
	}
	g := ct.C.GranuleOf(word)
	ln := ct.C.Line(set, way)
	ct.C.TouchDirtyG(ln, g, now)

	wasDirty := ln.Dirty[g]
	rbw := ct.Scheme.StoreNeedsOldData(set, way, g)
	rmw := mask != ^uint64(0)
	var old []uint64
	if rbw || rmw {
		// The read passes through the fault checker like any other read:
		// a latent fault in the old value must be recovered *before* it is
		// folded into the registers or merged with the new bytes.
		ct.C.ReassertGranule(set, way, g)
		ct.check(set, way, g, now, res)
		old = ct.oldBuf[:len(ct.granule(ln, g))]
		copy(old, ct.granule(ln, g))
		res.ReadPortOps++
		if rbw {
			ct.Stats.ReadBeforeWrite++
		}
		if rmw {
			ct.Stats.SubWordRMW++
		}
	}
	// The old value just passed the fault checker (unless recovery failed
	// with a DUE), so schemes may maintain check bits incrementally.
	oldVerified := old != nil && res.Fault != FaultDUE
	ln.Data[word] = ln.Data[word]&^mask | val&mask
	ct.Scheme.OnStore(set, way, g, old, wasDirty, oldVerified, now)
	if ct.writeThrough {
		// The store reaches the next level immediately; the line carries
		// no unique data and reverts to clean.
		ct.Next.WriteBackBlock(ct.C.BlockAddr(set, way), ln.Data, now)
		ct.Scheme.OnDowngrade(set, way, now)
	}
}

// granule returns the data slice of granule g.
func (ct *Controller) granule(ln *cache.Line, g int) []uint64 {
	gw := ct.C.GranuleWords()
	return ln.Data[g*gw : (g+1)*gw]
}

// FetchBlock implements cache.Backing: an upper level reads a whole block
// through this controller. Resident granules are verified (and repaired)
// on the way out.
func (ct *Controller) FetchBlock(addr uint64, dst []uint64, now uint64) int {
	ct.tick()
	ct.Stats.Loads++
	var res AccessResult
	res.Latency = ct.C.Cfg.HitLatencyCycles
	set, way := ct.ensure(addr, now, &res)
	if res.Hit {
		ct.Stats.LoadHits++
	}
	ln := ct.C.Line(set, way)
	ct.C.ReassertLine(set, way)
	// Clean line, clean syndromes: the loop below would be a complete
	// no-op (TouchDirtyG skips clean granules, FaultNone takes no branch),
	// and the scheme can prove that in one pass.
	if ct.lv != nil && !ln.DirtyAny() && ct.lv.VerifyLineClean(set, way) {
		copy(dst, ln.Data)
		return res.Latency
	}
	for g := 0; g < ct.C.Granules(); g++ {
		ct.C.TouchDirtyG(ln, g, now)
		ct.check(set, way, g, now, &res) // the line was reasserted above
	}
	copy(dst, ln.Data)
	return res.Latency
}

// WriteBackBlock implements cache.Backing: an upper level pushes a dirty
// block down into this controller (write-allocate).
func (ct *Controller) WriteBackBlock(addr uint64, src []uint64, now uint64) {
	ct.tick()
	ct.Stats.Stores++
	var res AccessResult
	set, way := ct.ensure(addr, now, &res)
	if res.Hit {
		ct.Stats.StoreHits++
	}
	ln := ct.C.Line(set, way)
	gw := ct.C.GranuleWords()
	for g := 0; g < ct.C.Granules(); g++ {
		ct.C.TouchDirtyG(ln, g, now)
		wasDirty := ln.Dirty[g]
		var old []uint64
		if ct.Scheme.StoreNeedsOldData(set, way, g) {
			old = ct.oldBuf[:gw]
			copy(old, ct.granule(ln, g))
			ct.Stats.ReadBeforeWrite++
		}
		copy(ct.granule(ln, g), src[g*gw:(g+1)*gw])
		// The old value was captured without passing the fault checker, so
		// check bits must be recomputed from scratch (oldVerified=false): a
		// latent fault would otherwise surface as a spurious detection.
		ct.Scheme.OnStore(set, way, g, old, wasDirty, false, now)
	}
}

// Flush writes every dirty block back to the next level (used at the end
// of simulations so golden comparisons see all data).
func (ct *Controller) Flush(now uint64) {
	type ref struct{ set, way int }
	var dirty []ref
	ct.C.ForEachValid(func(set, way int, ln *cache.Line) {
		if ln.DirtyAny() {
			dirty = append(dirty, ref{set, way})
		}
	})
	for _, r := range dirty {
		var res AccessResult
		ct.writeBack(r.set, r.way, false, now, &res)
		ct.C.Invalidate(r.set, r.way)
	}
}

// FlushBlock writes the dirty data of a resident block back to the next
// level and downgrades it to clean, keeping it resident (the coherence
// M->S transition). Reports whether a write-back happened.
func (ct *Controller) FlushBlock(addr, now uint64) bool {
	set, way := ct.C.Probe(addr)
	if way < 0 {
		return false
	}
	if !ct.C.Line(set, way).DirtyAny() {
		return false
	}
	var res AccessResult
	ct.writeBack(set, way, true, now, &res)
	return true
}

// InvalidateBlock removes a resident block (the coherence invalidation on
// a remote write), writing dirty data back first. Reports whether the
// block was resident.
func (ct *Controller) InvalidateBlock(addr, now uint64) bool {
	set, way := ct.C.Probe(addr)
	if way < 0 {
		return false
	}
	if ct.C.Line(set, way).DirtyAny() {
		var res AccessResult
		ct.writeBack(set, way, false, now, &res)
	} else {
		ct.Scheme.OnEvict(set, way, now)
	}
	ct.C.Invalidate(set, way)
	return true
}
