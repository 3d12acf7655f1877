package protect

import (
	"fmt"

	"cppc/internal/cache"
	"cppc/internal/core"
)

// Parity1D is the baseline: the interleaved parity check code per
// granule, detection only. Faults in clean data are repaired by
// re-fetching; faults in dirty data halt the program (Sec. 1: "an
// exception is taken whenever a fault is detected in a dirty block").
// OnFill and the check-bit arithmetic come from the embedded code.
type Parity1D struct{ core.Parity }

// NewParity1D attaches degree-way interleaved parity to c.
func NewParity1D(c *cache.Cache, degree int) *Parity1D {
	return &Parity1D{core.Parity{C: c, Degree: degree}}
}

func (p *Parity1D) Name() string {
	return fmt.Sprintf("parity-1d-%dway", p.Degree)
}
func (p *Parity1D) CheckBitsPerGranule() int             { return p.Degree }
func (p *Parity1D) BitlineFactor() float64               { return 1 }
func (p *Parity1D) FillNeedsOldLine() bool               { return false }
func (p *Parity1D) StoreNeedsOldData(int, int, int) bool { return false }

// VerifyGranule reports a clean granule, a clean fault to refetch, or a
// DUE for a fault in dirty data.
func (p *Parity1D) VerifyGranule(set, way, g int, _ uint64) (FaultStatus, bool) {
	if p.CheckSyndrome(set, way, g) == 0 {
		return FaultNone, false
	}
	if p.C.Line(set, way).Dirty[g] {
		return FaultDUE, false
	}
	return FaultCorrectedClean, true
}

// VerifyLineClean implements LineVerifier: every granule's stored parity
// matches a recompute.
func (p *Parity1D) VerifyLineClean(set, way int) bool {
	return p.LineSyndromeOr(set, way) == 0
}

func (p *Parity1D) OnStore(set, way, g int, old []uint64, _, oldVerified bool, now uint64) {
	p.C.MarkDirty(set, way, g*p.C.GranuleWords(), now)
	p.UpdateCheck(set, way, g, old, oldVerified)
}

// OnEvict marks the line clean: detection-only parity has nothing to
// fold and no dirty bookkeeping beyond the bits themselves.
func (p *Parity1D) OnEvict(set, way int, _ uint64) {
	for g := range p.C.Line(set, way).Dirty {
		p.C.MarkClean(set, way, g)
	}
}

// OnRefetchGranule re-encodes parity for the refreshed granule.
func (p *Parity1D) OnRefetchGranule(set, way, g int, _ []uint64) {
	p.EncodeCheck(set, way, g)
}

// OnDowngrade is OnEvict: the line only stops being dirty.
func (p *Parity1D) OnDowngrade(set, way int, now uint64) { p.OnEvict(set, way, now) }
