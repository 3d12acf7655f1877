package parity

import (
	"fmt"
	"math/bits"
)

// maxHammingCheck is the Hamming check-bit count of the widest supported
// code (1024 data bits need 11), and so the width of each per-word mask
// row.
const maxHammingCheck = 11

// Hamming is an extended Hamming SECDED code over an arbitrary number of
// data bits (up to 1024): the per-word (72,64) code at L1 and the paper's
// block-level code at L2 ("as an L2 cache, a SECDED is attached to a block
// instead of each word", Sec. 6). The fixed-width SECDED type is the
// reference the width-64 code is checked against.
type Hamming struct {
	dataBits  int
	checkBits int   // Hamming check bits (excluding the overall parity bit)
	posOf     []int // codeword position of each data bit
	dataAt    []int // inverse: data bit at codeword position, or -1
	// masks[w][c] is the mask of data word w's bits covered by Hamming
	// check bit c (zero for c >= checkBits).
	masks [][maxHammingCheck]uint64
}

// NewHamming builds a SECDED code over dataBits bits of data, which must
// be a positive multiple of 64 (data is passed as []uint64).
func NewHamming(dataBits int) (*Hamming, error) {
	if dataBits <= 0 || dataBits > 1024 || dataBits%64 != 0 {
		return nil, fmt.Errorf("parity: unsupported Hamming data width %d", dataBits)
	}
	r := 0
	for (1 << uint(r)) < dataBits+r+1 {
		r++
	}
	n := dataBits + r // highest codeword position (positions 1..n)
	h := &Hamming{
		dataBits:  dataBits,
		checkBits: r,
		posOf:     make([]int, dataBits),
		dataAt:    make([]int, n+1),
		masks:     make([][maxHammingCheck]uint64, dataBits/64),
	}
	for i := range h.dataAt {
		h.dataAt[i] = -1
	}
	i := 0
	for pos := 1; pos <= n && i < dataBits; pos++ {
		if pos&(pos-1) == 0 {
			continue
		}
		h.posOf[i] = pos
		h.dataAt[pos] = i
		for c := 0; c < r; c++ {
			if pos>>uint(c)&1 != 0 {
				h.masks[i/64][c] |= 1 << uint(i%64)
			}
		}
		i++
	}
	if i != dataBits {
		return nil, fmt.Errorf("parity: internal error sizing Hamming(%d)", dataBits)
	}
	return h, nil
}

// MustHamming is NewHamming that panics on error.
func MustHamming(dataBits int) *Hamming {
	h, err := NewHamming(dataBits)
	if err != nil {
		panic(err)
	}
	return h
}

// CheckBits is the total stored check bits: Hamming bits plus the overall
// parity bit. (10 for a 256-bit block.)
func (h *Hamming) CheckBits() int { return h.checkBits + 1 }

// Name identifies the code.
func (h *Hamming) Name() string {
	return fmt.Sprintf("secded-%d-%d", h.dataBits+h.CheckBits(), h.dataBits)
}

// parity64 is the parity of x as 0 or 1.
func parity64(x uint64) uint64 { return uint64(bits.OnesCount64(x) & 1) }

// fold is the word-parallel kernel behind Encode and Decode. One pass
// over data ANDs each word with its per-check-bit masks into one
// accumulator per check bit and XORs the words together; the parity of
// accumulator c is Hamming check bit c, and the parity of the running XOR
// is the parity of the data. It returns the Hamming check bits (bits
// 0..r-1) and that XOR. data must hold exactly dataBits/64 words.
func (h *Hamming) fold(data []uint64) (hc, all uint64) {
	if len(data) != len(h.masks) {
		panic(fmt.Sprintf("parity: Hamming(%d) given %d data words", h.dataBits, len(data)))
	}
	// Named accumulators stay in registers; the rows above checkBits are
	// zero, so the unused ones stay zero and add nothing to hc.
	var a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10 uint64
	for w, d := range data {
		m := &h.masks[w]
		a0 ^= d & m[0]
		a1 ^= d & m[1]
		a2 ^= d & m[2]
		a3 ^= d & m[3]
		a4 ^= d & m[4]
		a5 ^= d & m[5]
		a6 ^= d & m[6]
		a7 ^= d & m[7]
		a8 ^= d & m[8]
		a9 ^= d & m[9]
		a10 ^= d & m[10]
		all ^= d
	}
	hc = parity64(a0) | parity64(a1)<<1 | parity64(a2)<<2 | parity64(a3)<<3 |
		parity64(a4)<<4 | parity64(a5)<<5 | parity64(a6)<<6 | parity64(a7)<<7 |
		parity64(a8)<<8 | parity64(a9)<<9 | parity64(a10)<<10
	return hc, all
}

// Encode computes the check bits for data: bits 0..r-1 are the Hamming
// check bits, bit r the overall parity over the whole codeword. data must
// hold exactly dataBits/64 words.
func (h *Hamming) Encode(data []uint64) uint64 {
	hc, all := h.fold(data)
	// Parity is linear, so the overall bit (data parity XOR check-bit
	// parity) is one parity of the XOR.
	return hc | parity64(all^hc)<<uint(h.checkBits)
}

// EncodeRef is the bit-serial reference encoder Encode is tested against:
// it XORs together the codeword positions of the set data bits, one data
// bit at a time.
func (h *Hamming) EncodeRef(data []uint64) uint64 {
	var check uint64
	for i := 0; i < h.dataBits; i++ {
		if (data[i/64]>>uint(i%64))&1 != 0 {
			check ^= uint64(h.posOf[i])
		}
	}
	// check now holds, in bit c, the parity of data bits covered by check
	// bit c (the XOR of positions trick).
	check &= (1 << uint(h.checkBits)) - 1
	var total uint64
	for _, w := range data {
		total ^= uint64(bits.OnesCount64(w) & 1)
	}
	total ^= uint64(bits.OnesCount64(check) & 1)
	return check | total<<uint(h.checkBits)
}

// HammingResult reports a decode: the outcome reuses the SECDED
// classifications; DataBit is the corrected data bit index (or -1).
type HammingResult struct {
	Outcome SECDEDOutcome
	DataBit int
}

// Decode checks received data against received check bits. On
// SECDEDCorrectedData the caller must flip DataBit of the data.
func (h *Hamming) Decode(data []uint64, check uint64) HammingResult {
	// One fold yields both the recomputed Hamming bits and the data's
	// share of the overall parity.
	hc, all := h.fold(data)
	mask := uint64(1<<uint(h.checkBits)) - 1
	syndrome := int((check ^ hc) & mask)
	stored := check & (mask | 1<<uint(h.checkBits)) // Hamming bits and the overall bit
	overallMismatch := parity64(all^stored) != 0

	switch {
	case syndrome == 0 && !overallMismatch:
		return HammingResult{Outcome: SECDEDClean, DataBit: -1}
	case overallMismatch:
		if syndrome == 0 || (syndrome&(syndrome-1)) == 0 {
			return HammingResult{Outcome: SECDEDCorrectedCheck, DataBit: -1}
		}
		if syndrome < len(h.dataAt) && h.dataAt[syndrome] >= 0 {
			return HammingResult{Outcome: SECDEDCorrectedData, DataBit: h.dataAt[syndrome]}
		}
		return HammingResult{Outcome: SECDEDDoubleError, DataBit: -1}
	default:
		return HammingResult{Outcome: SECDEDDoubleError, DataBit: -1}
	}
}
