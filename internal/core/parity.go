package core

import (
	"cppc/internal/bitops"
	"cppc/internal/cache"
)

// Parity is the interleaved parity check code over a cache's dirty
// granules: Degree check bits per granule, where stripe s is the XOR of
// every data bit whose index is congruent to s modulo Degree, across all
// words of the granule. The bits live in the granule's first Check slot.
//
// Every parity scheme detects through this one code: detection-only
// parity, two-dimensional parity (which adds a vertical row) and CPPC
// (which adds the register pairs, and re-verifies through it during
// recovery). Granules of one word at degree 8 — the L1 register width
// at the evaluated degree, the per-load verify hot path — take an
// unrolled single-word kernel in each method instead of the line fold.
type Parity struct {
	C      *cache.Cache
	Degree int
}

// wordFast reports the one-word, degree-8 granule shape.
func (p *Parity) wordFast() bool { return p.C.GranuleWords() == 1 && p.Degree == 8 }

// GranuleData returns the live data slice of granule g of a line.
func (p *Parity) GranuleData(ln *cache.Line, g int) []uint64 {
	gw := p.C.GranuleWords()
	return ln.Data[g*gw : (g+1)*gw]
}

// GranuleParity computes the check bits of a granule's data. Parity is
// linear, so the words are XORed together first and a single SWAR fold
// finishes the job.
func (p *Parity) GranuleParity(data []uint64) uint64 {
	if len(data) == 1 && p.Degree == 8 {
		return bitops.Parity8(data[0])
	}
	return bitops.FoldLineParity(data, p.Degree)
}

// EncodeCheck recomputes and stores the check bits of granule g.
func (p *Parity) EncodeCheck(set, way, g int) {
	ln := p.C.Line(set, way)
	ln.Check[g*p.C.GranuleWords()] = p.GranuleParity(p.GranuleData(ln, g))
}

// CheckSyndrome recomputes granule g's check bits and returns the set of
// disagreeing stripes (0 = clean).
func (p *Parity) CheckSyndrome(set, way, g int) uint64 {
	ln := p.C.Line(set, way)
	if p.wordFast() {
		return ln.Check[g] ^ bitops.Parity8(ln.Data[g])
	}
	return ln.Check[g*p.C.GranuleWords()] ^ p.GranuleParity(p.GranuleData(ln, g))
}

// LineSyndromeOr ORs every granule's syndrome in one pass; zero means
// the whole line verifies clean. One bounds-predictable loop with no
// per-granule dispatch — the bulk path behind a clean block fetch.
func (p *Parity) LineSyndromeOr(set, way int) uint64 {
	ln := p.C.Line(set, way)
	var or uint64
	if p.wordFast() {
		for g := 0; g < p.C.Granules(); g++ {
			or |= ln.Check[g] ^ bitops.Parity8(ln.Data[g])
		}
		return or
	}
	gw := p.C.GranuleWords()
	for g := 0; g < p.C.Granules(); g++ {
		or |= ln.Check[g*gw] ^ p.GranuleParity(p.GranuleData(ln, g))
	}
	return or
}

// OnFill encodes the check bits of a freshly installed block.
func (p *Parity) OnFill(set, way int) {
	ln := p.C.Line(set, way)
	if p.wordFast() {
		for g := 0; g < p.C.Granules(); g++ {
			ln.Check[g] = bitops.Parity8(ln.Data[g])
		}
		return
	}
	gw := p.C.GranuleWords()
	for g := 0; g < p.C.Granules(); g++ {
		ln.Check[g*gw] = p.GranuleParity(p.GranuleData(ln, g))
	}
}

// UpdateCheck brings granule g's check bits up to date after a store; the
// line already holds the new data and old is the granule's previous
// contents (nil when the store did not read them).
//
// oldVerified reports that the granule passed the fault checker in this
// same access before old was captured (the controller's word-store
// read-before-write path). The stored check bits then equal Parity(old),
// and parity's linearity lets them be maintained incrementally:
// check ^= Parity(old ^ new) rewrites them to exactly Parity(new) without
// re-deriving anything — the hardware's check-bit datapath (Sec. 3.1),
// and the same redundant re-encode that silent-write ECC work elides.
// When old was captured without a verify (the block write-back path), a
// full re-encode keeps the legacy semantics: a latent fault overwritten
// by the store is healed rather than flagged on the next read.
func (p *Parity) UpdateCheck(set, way, g int, old []uint64, oldVerified bool) {
	if !oldVerified || old == nil {
		p.EncodeCheck(set, way, g)
		return
	}
	ln := p.C.Line(set, way)
	delta := bitops.FoldLineDelta(old, p.GranuleData(ln, g))
	if p.Degree == 8 {
		ln.Check[g*p.C.GranuleWords()] ^= bitops.Parity8(delta)
	} else {
		ln.Check[g*p.C.GranuleWords()] ^= bitops.Parity(delta, p.Degree)
	}
}
