// Package parity implements the error-detection and error-correction codes
// that the paper compares: k-way interleaved parity (the detection code used
// by CPPC and by the one- and two-dimensional parity caches), a real (72,64)
// Hamming SECDED code, and the vertical-parity arithmetic of two-dimensional
// parity caches.
package parity

import (
	"fmt"

	"cppc/internal/bitops"
)

// Code computes and checks per-word check bits. Implementations are
// stateless; the caller stores the check bits alongside the word.
type Code interface {
	// Name identifies the code in reports.
	Name() string
	// CheckBits is the number of check bits the code stores per 64-bit word.
	CheckBits() int
	// Encode computes the check bits for w.
	Encode(w uint64) uint64
	// Detects reports whether the code flags an error for the received
	// word/check pair.
	Detects(w, check uint64) bool
}

// Interleaved is a k-way interleaved parity code over a 64-bit word: parity
// stripe p is the XOR of bits p, p+k, p+2k, ... (Sec. 3.6). Degree 1 is
// plain one-parity-bit-per-word; degree 8 is the one-parity-bit-per-byte
// configuration evaluated in Sec. 6.
type Interleaved struct {
	Degree int
}

// NewInterleaved returns a k-way interleaved parity code. Degree must divide
// 64.
func NewInterleaved(degree int) Interleaved {
	if degree <= 0 || degree > 64 || 64%degree != 0 {
		panic(fmt.Sprintf("parity: invalid interleave degree %d", degree))
	}
	return Interleaved{Degree: degree}
}

func (c Interleaved) Name() string   { return fmt.Sprintf("parity-%dway", c.Degree) }
func (c Interleaved) CheckBits() int { return c.Degree }

// Encode packs the Degree parity stripes into the low bits of the result.
func (c Interleaved) Encode(w uint64) uint64 { return bitops.Parity(w, c.Degree) }

// Detects reports whether any stripe disagrees.
func (c Interleaved) Detects(w, check uint64) bool { return c.Syndrome(w, check) != 0 }

// Syndrome returns the set of disagreeing stripes as a bitmask (bit p set
// means parity stripe p flagged an error).
func (c Interleaved) Syndrome(w, check uint64) uint64 {
	return bitops.Syndrome(check, c.Encode(w))
}

// FaultyStripes expands the syndrome for a received word into the list of
// parity stripe indices that detected a fault.
func (c Interleaved) FaultyStripes(w, check uint64) []int {
	return bitops.FaultyStripes(c.Syndrome(w, check), c.Degree)
}
