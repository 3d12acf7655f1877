package protect

import (
	"fmt"

	"cppc/internal/bitops"
	"cppc/internal/cache"
	"cppc/internal/parity"
)

// TwoDim is the two-dimensional parity cache of Kim et al. [12] in the
// configuration the paper evaluates: the detection-only interleaved
// parity of Parity1D (8-way per granule), plus a single vertical parity
// row (the XOR of every valid word in the cache) for correction. Each
// override updates the vertical row, then defers to Parity1D; OnDowngrade
// is inherited, because a downgraded line's words stay in the row.
//
// Keeping the vertical row current costs a read-before-write on every
// store and a whole-line read on every miss fill — the energy overheads of
// Figs. 11 and 12.
type TwoDim struct {
	Parity1D
	V parity.Vertical
}

// NewTwoDim attaches two-dimensional parity to c.
func NewTwoDim(c *cache.Cache, degree int) *TwoDim {
	return &TwoDim{Parity1D: *NewParity1D(c, degree)}
}

func (t *TwoDim) Name() string           { return fmt.Sprintf("parity-2d-%dway", t.Degree) }
func (t *TwoDim) FillNeedsOldLine() bool { return true }

// StoreNeedsOldData: the defining cost — every store reads the old data
// first so the vertical row can be updated.
func (t *TwoDim) StoreNeedsOldData(int, int, int) bool { return true }

// OnFill inserts the new line's words into the vertical row and encodes
// horizontal parity. The departing line's words were removed by OnEvict.
func (t *TwoDim) OnFill(set, way int) {
	for _, w := range t.C.Line(set, way).Data {
		t.V.Insert(w)
	}
	t.Parity1D.OnFill(set, way)
}

// OnEvict removes every word of the departing line from the vertical row.
func (t *TwoDim) OnEvict(set, way int, now uint64) {
	for _, w := range t.C.Line(set, way).Data {
		t.V.Remove(w)
	}
	t.Parity1D.OnEvict(set, way, now)
}

func (t *TwoDim) OnStore(set, way, g int, old []uint64, wasDirty, oldVerified bool, now uint64) {
	t.swapVertical(set, way, g, old)
	t.Parity1D.OnStore(set, way, g, old, wasDirty, oldVerified, now)
}

// swapVertical replaces granule g's old words by its resident ones in
// the vertical row.
func (t *TwoDim) swapVertical(set, way, g int, old []uint64) {
	for j, w := range t.GranuleData(t.C.Line(set, way), g) {
		t.V.Write(old[j], w)
	}
}

// VerifyGranule: horizontal parity detects; a clean faulty granule is
// re-fetched; a dirty one, which Parity1D would declare a DUE, is
// reconstructed from the vertical row, which works for exactly one
// faulty word in the whole cache.
func (t *TwoDim) VerifyGranule(set, way, g int, now uint64) (FaultStatus, bool) {
	status, needRefetch := t.Parity1D.VerifyGranule(set, way, g, now)
	if status != FaultDUE {
		return status, needRefetch
	}
	if t.reconstruct(set, way, g) {
		return FaultCorrectedDirty, false
	}
	return FaultDUE, false
}

// reconstruct repairs one faulty word of granule g from the vertical row.
// It XORs every other valid word in the cache (checking their horizontal
// parity on the way: a second faulty granule anywhere makes the single
// vertical row insufficient), then tries each word of the granule as the
// faulty one and accepts the unique candidate that restores parity.
func (t *TwoDim) reconstruct(set, way, g int) bool {
	gw := t.C.GranuleWords()
	secondFault := false
	var othersXor uint64
	t.C.ForEachValid(func(s, w int, ln *cache.Line) {
		for gg := 0; gg < t.C.Granules(); gg++ {
			if s == set && w == way && gg == g {
				continue // target granule handled per candidate below
			}
			data := t.GranuleData(ln, gg)
			if ln.Check[gg*gw] != t.GranuleParity(data) {
				secondFault = true
			}
			othersXor ^= bitops.FoldLine(data)
		}
	})
	if secondFault {
		return false
	}

	target := t.C.Line(set, way)
	data := t.GranuleData(target, g)
	stored := target.Check[g*gw]
	corrected := -1
	var value uint64
	granXor := bitops.FoldLine(data)
	for cand := 0; cand < gw; cand++ {
		// XOR of all words except the candidate = othersXor ^ (granule
		// words other than cand).
		x := othersXor ^ granXor ^ data[cand]
		rec := t.V.Reconstruct(x)
		// Accept if replacing the candidate restores horizontal parity.
		saved := data[cand]
		data[cand] = rec
		ok := t.GranuleParity(data) == stored
		data[cand] = saved
		if ok && rec != saved {
			if corrected >= 0 {
				return false // ambiguous
			}
			corrected, value = cand, rec
		}
	}
	if corrected < 0 {
		return false
	}
	data[corrected] = value
	return true
}

// OnRefetchGranule swaps the granule's old (corrupted) words for the
// refreshed ones in the vertical parity row and re-encodes the
// horizontal parity.
func (t *TwoDim) OnRefetchGranule(set, way, g int, old []uint64) {
	t.swapVertical(set, way, g, old)
	t.Parity1D.OnRefetchGranule(set, way, g, old)
}
