package parity

import "math/bits"

// SECDED is a (72,64) extended Hamming code: single-error correction,
// double-error detection. Check bits occupy codeword positions 1, 2, 4, 8,
// 16, 32 and 64; position 0 holds the overall parity bit that upgrades the
// Hamming code from SEC to SECDED. Data bits fill the remaining 64
// positions in ascending order.
//
// The 12.5% storage overhead (8 check bits per 64-bit word) and the
// multi-level XOR-tree decode latency of this code are exactly the costs
// the paper's introduction holds against SECDED for L1 caches.
//
// Simulations run the same code as Hamming(64); this fixed-width type is
// the reference that width is checked against, bit for bit.
type SECDED struct{}

const (
	secdedCodeBits  = 72
	secdedCheckBits = 8
	overallPos      = 0 // position of the overall (extended) parity bit
)

// dataPos[i] is the codeword position of data bit i; checkPos[c] is the
// position of Hamming check bit c. Built once at package init.
var (
	dataPos  [64]int
	checkPos [7]int
	// checkMask[c] is the mask of data bits covered by Hamming check bit c.
	checkMask [7]uint64
)

func init() {
	for c := 0; c < 7; c++ {
		checkPos[c] = 1 << uint(c)
	}
	i := 0
	for pos := 1; pos < secdedCodeBits; pos++ {
		if pos&(pos-1) == 0 { // power of two: a check-bit position
			continue
		}
		dataPos[i] = pos
		i++
	}
	for c := 0; c < 7; c++ {
		for i := 0; i < 64; i++ {
			if dataPos[i]&checkPos[c] != 0 {
				checkMask[c] |= 1 << uint(i)
			}
		}
	}
}

func (SECDED) Name() string   { return "secded-72-64" }
func (SECDED) CheckBits() int { return secdedCheckBits }

// Encode returns the 8 check bits for w: bits 0..6 are the Hamming check
// bits, bit 7 is the overall parity over the full 72-bit codeword.
func (SECDED) Encode(w uint64) uint64 {
	var check uint64
	for c := 0; c < 7; c++ {
		check |= uint64(bits.OnesCount64(w&checkMask[c])&1) << uint(c)
	}
	// Overall parity makes the whole 72-bit codeword have even parity.
	overall := uint(bits.OnesCount64(w)+bits.OnesCount64(check)) & 1
	return check | uint64(overall)<<7
}

// SECDEDOutcome classifies a decode.
type SECDEDOutcome int

const (
	// SECDEDClean means no error was detected.
	SECDEDClean SECDEDOutcome = iota
	// SECDEDCorrectedData means a single-bit error in a data bit was
	// corrected; Corrected holds the repaired word and DataBit the index.
	SECDEDCorrectedData
	// SECDEDCorrectedCheck means a single-bit error hit a check bit; the
	// data word is intact.
	SECDEDCorrectedCheck
	// SECDEDDoubleError means an (even-weight) multi-bit error was detected
	// but cannot be corrected: a DUE.
	SECDEDDoubleError
)

func (o SECDEDOutcome) String() string {
	switch o {
	case SECDEDClean:
		return "clean"
	case SECDEDCorrectedData:
		return "corrected-data"
	case SECDEDCorrectedCheck:
		return "corrected-check"
	case SECDEDDoubleError:
		return "double-error"
	}
	return "unknown"
}

// SECDEDResult is the outcome of decoding a received (word, check) pair.
type SECDEDResult struct {
	Outcome   SECDEDOutcome
	Corrected uint64 // repaired data word (equal to input when no data bit flipped)
	DataBit   int    // index of the corrected data bit, or -1
}

// Decode checks a received word against its received check bits, correcting
// a single-bit error anywhere in the 72-bit codeword and detecting
// double-bit errors.
func (s SECDED) Decode(w, check uint64) SECDEDResult {
	expected := s.Encode(w)
	diff := (check ^ expected) & 0x7f

	// Syndrome: XOR of the positions of all flipped codeword bits. Because
	// Encode recomputes check bits from the received data, a flipped data
	// bit shows up as differences in exactly the check bits covering it, so
	// the position arithmetic below is equivalent to the textbook decoder.
	var syndrome int
	for c := 0; c < 7; c++ {
		if diff&(1<<uint(c)) != 0 {
			syndrome ^= checkPos[c]
		}
	}
	// The extended-parity check runs over all 72 received bits; the
	// codeword was encoded to even total parity, so odd parity here means
	// an odd number of flips.
	overallMismatch := (bits.OnesCount64(w)+bits.OnesCount64(check&0xff))&1 != 0

	switch {
	case syndrome == 0 && !overallMismatch:
		return SECDEDResult{Outcome: SECDEDClean, Corrected: w, DataBit: -1}
	case overallMismatch:
		// Odd number of flips: assume one, at position `syndrome`.
		if syndrome == 0 {
			// The overall parity bit itself flipped.
			return SECDEDResult{Outcome: SECDEDCorrectedCheck, Corrected: w, DataBit: -1}
		}
		if syndrome&(syndrome-1) == 0 && syndrome < secdedCodeBits {
			// A Hamming check bit flipped; data intact.
			return SECDEDResult{Outcome: SECDEDCorrectedCheck, Corrected: w, DataBit: -1}
		}
		if bit, ok := posToDataBit(syndrome); ok {
			return SECDEDResult{
				Outcome:   SECDEDCorrectedData,
				Corrected: w ^ (1 << uint(bit)),
				DataBit:   bit,
			}
		}
		// Syndrome points outside the codeword: at least three flips.
		return SECDEDResult{Outcome: SECDEDDoubleError, Corrected: w, DataBit: -1}
	default:
		// Even number of flips (>=2): detectable, not correctable.
		return SECDEDResult{Outcome: SECDEDDoubleError, Corrected: w, DataBit: -1}
	}
}

// posToDataBit maps a codeword position back to its data bit index.
func posToDataBit(pos int) (int, bool) {
	if pos <= 0 || pos >= secdedCodeBits || pos&(pos-1) == 0 {
		return 0, false
	}
	// Count non-power-of-two positions below pos, starting from 1.
	n := 0
	for p := 1; p < pos; p++ {
		if p&(p-1) != 0 {
			n++
		}
	}
	return n, true
}
