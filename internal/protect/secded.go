package protect

import (
	"cppc/internal/cache"
	"cppc/internal/parity"
)

// SECDEDScheme protects each dirty granule with an extended Hamming code:
// (72,64) per word at L1 (combined with 8-way physical bit interleaving,
// which shows up as an 8x bitline energy factor, Sec. 6.2), a single
// block-level code at L2.
type SECDEDScheme struct {
	C    *cache.Cache
	code *parity.Hamming
	// Interleaved models physical bit interleaving (L1 configuration):
	// it affects energy only, correction capability is per-codeword.
	Interleaved bool
}

// NewSECDED attaches a SECDED code sized to the cache's dirty granule.
func NewSECDED(c *cache.Cache, interleaved bool) *SECDEDScheme {
	return &SECDEDScheme{
		C:           c,
		code:        parity.MustHamming(c.Cfg.DirtyGranuleWords * 64),
		Interleaved: interleaved,
	}
}

func (s *SECDEDScheme) Name() string             { return s.code.Name() }
func (s *SECDEDScheme) CheckBitsPerGranule() int { return s.code.CheckBits() }
func (s *SECDEDScheme) BitlineFactor() float64 {
	if s.Interleaved {
		return 8
	}
	return 1
}
func (s *SECDEDScheme) FillNeedsOldLine() bool { return false }

// granule returns the data words of granule g of ln and the index of the
// Check slot that holds their code.
func (s *SECDEDScheme) granule(ln *cache.Line, g int) (data []uint64, slot int) {
	gw := s.C.GranuleWords()
	return ln.Data[g*gw : (g+1)*gw], g * gw
}

func (s *SECDEDScheme) encode(ln *cache.Line, g int) {
	data, slot := s.granule(ln, g)
	ln.Check[slot] = s.code.Encode(data)
}

func (s *SECDEDScheme) OnFill(set, way int) {
	ln := s.C.Line(set, way)
	for g := 0; g < s.C.Granules(); g++ {
		s.encode(ln, g)
	}
}

func (s *SECDEDScheme) VerifyGranule(set, way, g int, _ uint64) (FaultStatus, bool) {
	ln := s.C.Line(set, way)
	data, slot := s.granule(ln, g)
	res := s.code.Decode(data, ln.Check[slot])
	switch res.Outcome {
	case parity.SECDEDClean:
		return FaultNone, false
	case parity.SECDEDCorrectedData:
		data[res.DataBit/64] ^= 1 << uint(res.DataBit%64)
		if ln.Dirty[g] {
			return FaultCorrectedDirty, false
		}
		return FaultCorrectedClean, false
	case parity.SECDEDCorrectedCheck:
		ln.Check[slot] = s.code.Encode(data)
		if ln.Dirty[g] {
			return FaultCorrectedDirty, false
		}
		return FaultCorrectedClean, false
	default: // double error
		if ln.Dirty[g] {
			return FaultDUE, false
		}
		return FaultCorrectedClean, true
	}
}

func (s *SECDEDScheme) StoreNeedsOldData(int, int, int) bool { return false }

func (s *SECDEDScheme) OnStore(set, way, g int, _ []uint64, _, _ bool, now uint64) {
	s.C.MarkDirty(set, way, g*s.C.GranuleWords(), now)
	s.encode(s.C.Line(set, way), g)
}

func (s *SECDEDScheme) OnEvict(set, way int, _ uint64) {
	ln := s.C.Line(set, way)
	for g := range ln.Dirty {
		s.C.MarkClean(set, way, g)
	}
}

// OnRefetchGranule re-encodes the code for the refreshed granule.
func (s *SECDEDScheme) OnRefetchGranule(set, way, g int, _ []uint64) {
	s.encode(s.C.Line(set, way), g)
}

// OnDowngrade is OnEvict: the line only stops being dirty.
func (s *SECDEDScheme) OnDowngrade(set, way int, now uint64) { s.OnEvict(set, way, now) }
