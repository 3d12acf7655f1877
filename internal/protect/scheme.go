// Package protect implements the four cache-protection schemes the paper
// evaluates (Sec. 6) behind a common Scheme interface, plus the Controller
// that drives a protected cache: hit/miss handling, write-backs through
// the protection hooks, fault detection on loads, and the recovery paths.
//
// Controllers implement cache.Backing, so an L1 controller can sit on top
// of an L2 controller which sits on memory — each level with its own
// protection scheme, as in the paper's two-level evaluations.
package protect

import "cppc/internal/cache"

// EventResetter is implemented by schemes that accumulate engine event
// counters (CPPC's fold/recovery counts). ResetEvents zeroes them at a
// measurement boundary so that counters read after a run cover exactly
// the instructions run since the reset — the warmup boundary of the
// energy experiments, where cache stats are reset the same way.
type EventResetter interface {
	ResetEvents()
}

// FaultStatus classifies what a load encountered.
type FaultStatus int

const (
	// FaultNone: no fault detected.
	FaultNone FaultStatus = iota
	// FaultCorrectedClean: a fault in clean data, repaired by re-fetching
	// from the next level.
	FaultCorrectedClean
	// FaultCorrectedDirty: a fault in dirty data, repaired by the scheme's
	// correction machinery.
	FaultCorrectedDirty
	// FaultDUE: detected, unrecoverable — machine check.
	FaultDUE
)

func (f FaultStatus) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultCorrectedClean:
		return "corrected-clean"
	case FaultCorrectedDirty:
		return "corrected-dirty"
	case FaultDUE:
		return "DUE"
	}
	return "unknown"
}

// LineVerifier is an optional Scheme extension: schemes whose granule
// verify is a pure syndrome check can prove a whole clean line verifies
// in one pass, letting the controller's block-fetch path skip the
// per-granule dispatch loop entirely. VerifyLineClean must return true
// only when VerifyGranule would return (FaultNone, false) for every
// granule of the line.
type LineVerifier interface {
	VerifyLineClean(set, way int) bool
}

// Scheme is one protection policy attached to a cache. The Controller
// calls the hooks; set/way/granule coordinates refer to the controller's
// cache.
type Scheme interface {
	Name() string

	// CheckBitsPerGranule is the stored check-bit overhead per dirty
	// granule, for area accounting.
	CheckBitsPerGranule() int

	// BitlineFactor scales bitline energy per access: 8 for physically
	// bit-interleaved SECDED at L1 (Sec. 6.2), 1 otherwise.
	BitlineFactor() float64

	// OnFill (re)encodes check state for a freshly installed clean block.
	OnFill(set, way int)

	// VerifyGranule checks granule g, attempting correction of dirty data
	// where the scheme supports it. needRefetch is true when the granule
	// is clean-but-faulty and must be re-fetched by the controller.
	VerifyGranule(set, way, g int, now uint64) (status FaultStatus, needRefetch bool)

	// StoreNeedsOldData reports whether a store to granule g must first
	// read the old contents (the read-before-write). The port planner
	// (PlanStoreRBW) asks it too, to book the read-port slot.
	StoreNeedsOldData(set, way, g int) bool

	// OnStore is called after the cache line holds the new data; old is
	// the previous granule contents (nil unless StoreNeedsOldData or the
	// controller captured it anyway) and wasDirty the previous state.
	// old, when non-nil, is a scratch view valid only for the duration of
	// the call: schemes must fold or copy it before returning.
	//
	// oldVerified reports that the granule passed the fault checker in
	// this same access before old was captured; false on the block
	// write-back path (see core.Parity.UpdateCheck).
	OnStore(set, way, g int, old []uint64, wasDirty, oldVerified bool, now uint64)

	// OnEvict is called before a block leaves the cache (write-back or
	// invalidation), while its data is still resident.
	OnEvict(set, way int, now uint64)

	// OnRefetchGranule is called after the controller refreshed a *clean*
	// granule in place from the next level (clean-fault recovery). old is
	// the granule's previous (possibly corrupted) contents; the line now
	// holds the refreshed data.
	OnRefetchGranule(set, way, g int, old []uint64)

	// OnDowngrade is called when a block's dirty data has been written
	// back but the block stays resident (a coherence M->S downgrade): the
	// scheme must stop treating the granules as dirty, without removing
	// the block from any whole-cache structures.
	OnDowngrade(set, way int, now uint64)

	// FillNeedsOldLine reports whether a miss fill must first read the
	// victim line in its entirety (two-dimensional parity, Sec. 2).
	FillNeedsOldLine() bool
}

// Factory builds a protection scheme over a cache.
type Factory func(c *cache.Cache) Scheme
