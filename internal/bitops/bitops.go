// Package bitops provides the 64-bit word-level primitives that the CPPC
// protection machinery is built from: byte rotation (the dataflow of the
// paper's barrel shifter), interleaved-parity stripe arithmetic, and a few
// mask helpers shared by the parity codes and the fault locator.
//
// All operations are pure functions on uint64 values; the packages above
// this one decide when to apply them (e.g. data is rotated only on its way
// into the R1/R2 registers, never in the cache array itself — Sec. 4.1 of
// the paper).
package bitops

import "math/bits"

// WordBits is the machine word size the paper assumes throughout.
const WordBits = 64

// WordBytes is the number of bytes in a word.
const WordBytes = WordBits / 8

// RotlBytes rotates w left by n bytes (n is taken modulo 8). This is the
// operation performed by the CPPC barrel shifter before a word is XORed
// into a register pair: rotation class c rotates by c bytes.
func RotlBytes(w uint64, n int) uint64 {
	n = ((n % WordBytes) + WordBytes) % WordBytes
	return bits.RotateLeft64(w, n*8)
}

// RotrBytes rotates w right by n bytes; the inverse of RotlBytes, used in
// recovery step 2 ("rotate the result of step 1 in reverse").
func RotrBytes(w uint64, n int) uint64 {
	return RotlBytes(w, -n)
}

// The interleaved-parity kernels below are the hottest code in the
// simulator: every load verification and every store re-encode funnels
// through Parity. Two facts make them fast:
//
//   - every valid degree divides 64, and every divisor of 64 is a power of
//     two, so stripe masks for all degrees fit in one small precomputed
//     table (stripeMasks), built once at init from the reference
//     implementation;
//   - interleaved parity of degree d is a SWAR fold: XORing the top half of
//     a 2d-bit-wide value into the bottom half preserves every stripe's
//     parity, so folding 64 -> 32 -> ... -> d bits computes all d stripes
//     branch-free in log2(64/d) shift-XOR pairs (Parity).
//
// The original loop-built implementations are kept as reference oracles
// (StripeMaskRef, StripeParityRef, ParityRef); the equivalence tests and
// fuzzers in bitops_test.go hold the kernels to them bit for bit.

// validDegree reports whether degree is a legal interleave degree: it must
// divide the 64-bit word evenly (all such divisors are powers of two).
func validDegree(degree int) bool {
	return degree > 0 && degree <= WordBits && WordBits%degree == 0
}

// stripeMasks[log2(degree)][p] is StripeMask(p, degree) for the seven valid
// degrees 1, 2, 4, 8, 16, 32, 64.
var stripeMasks [7][]uint64

func init() {
	for lg := 0; lg < 7; lg++ {
		degree := 1 << uint(lg)
		stripeMasks[lg] = make([]uint64, degree)
		for p := 0; p < degree; p++ {
			stripeMasks[lg][p] = StripeMaskRef(p, degree)
		}
	}
}

// StripeMask returns the mask of the bits covered by interleaved parity bit
// p out of degree total bits of parity per 64-bit word. With degree=8,
// parity bit p covers bits p, p+8, ..., p+56 (Sec. 3.6).
func StripeMask(p, degree int) uint64 {
	if !validDegree(degree) {
		panic("bitops: invalid interleaved parity degree")
	}
	return stripeMasks[bits.TrailingZeros(uint(degree))][p%degree]
}

// StripeMaskRef is the loop-built reference implementation of StripeMask,
// kept as the oracle the precomputed tables are checked against.
func StripeMaskRef(p, degree int) uint64 {
	if !validDegree(degree) {
		panic("bitops: invalid interleaved parity degree")
	}
	var m uint64
	for i := p % degree; i < WordBits; i += degree {
		m |= 1 << uint(i)
	}
	return m
}

// StripeParityRef computes interleaved parity bit p of w for the given
// degree by mask and popcount: the XOR of all bits of w whose index is
// congruent to p modulo degree. ParityRef is built from it.
func StripeParityRef(w uint64, p, degree int) uint64 {
	return uint64(bits.OnesCount64(w&StripeMaskRef(p, degree)) & 1)
}

// Parity computes all degree interleaved parity bits of w at once, packed
// into the low bits of the result (bit p of the result is parity stripe p).
//
// It is a SWAR fold: halving the width with a shift-XOR XORs bit i with bit
// i+width/2, which lie in the same stripe whenever degree divides width/2;
// repeating down to the interleave degree leaves stripe p's parity in bit p.
func Parity(w uint64, degree int) uint64 {
	if !validDegree(degree) {
		panic("bitops: invalid interleaved parity degree")
	}
	for s := WordBits / 2; s >= degree; s >>= 1 {
		w ^= w >> uint(s)
	}
	if degree == WordBits {
		return w
	}
	return w & (1<<uint(degree) - 1)
}

// Parity8 is Parity specialized to the paper's evaluated 8-way interleave
// (Sec. 3.6): a fully unrolled three-step fold. The hot encode/verify paths
// in internal/core and internal/protect dispatch here.
func Parity8(w uint64) uint64 {
	w ^= w >> 32
	w ^= w >> 16
	w ^= w >> 8
	return w & 0xff
}

// ParityRef is the stripe-by-stripe reference implementation of Parity,
// kept as the oracle for the SWAR kernels.
func ParityRef(w uint64, degree int) uint64 {
	var out uint64
	for p := 0; p < degree; p++ {
		out |= StripeParityRef(w, p, degree) << uint(p)
	}
	return out
}

// FaultyStripes expands a parity syndrome into the list of stripe indices
// that flagged an error, in ascending order.
func FaultyStripes(syndrome uint64, degree int) []int {
	var out []int
	for p := 0; p < degree; p++ {
		if syndrome&(1<<uint(p)) != 0 {
			out = append(out, p)
		}
	}
	return out
}

// OnesPositions returns the indices of the set bits of w in ascending order.
func OnesPositions(w uint64) []int {
	out := make([]int, 0, bits.OnesCount64(w))
	for w != 0 {
		i := bits.TrailingZeros64(w)
		out = append(out, i)
		w &^= 1 << uint(i)
	}
	return out
}
