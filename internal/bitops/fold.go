package bitops

// Whole-line fold kernels. Every whole-line reduction in the protection
// machinery — granule parity (encode, verify, scrub), the incremental
// check-bit delta on stores, and the 2D scheme's reconstruction sweep —
// is an XOR of a []uint64 run followed by one SWAR parity fold. The XOR
// itself used to reduce through a single accumulator, i.e. a serial
// dependency chain of length len(line); like the classic multi-register
// parity kernels, FoldLine breaks the chain with four independent
// accumulators so the adds retire in parallel, then combines them in a
// two-level tree.
//
// The single-accumulator loops are kept as reference oracles
// (FoldLineRef, FoldLineDeltaRef, FoldLineParityRef);
// fold_test.go holds the kernels to them bit for bit, exhaustively over
// line lengths and under fuzzing.

// FoldLine XOR-reduces line to a single word using four independent
// accumulators.
func FoldLine(line []uint64) uint64 {
	var a0, a1, a2, a3 uint64
	i := 0
	for ; i+4 <= len(line); i += 4 {
		a0 ^= line[i]
		a1 ^= line[i+1]
		a2 ^= line[i+2]
		a3 ^= line[i+3]
	}
	for ; i < len(line); i++ {
		a0 ^= line[i]
	}
	return (a0 ^ a1) ^ (a2 ^ a3)
}

// FoldLineRef is the single-accumulator reference for FoldLine.
func FoldLineRef(line []uint64) uint64 {
	var x uint64
	for _, w := range line {
		x ^= w
	}
	return x
}

// FoldLineDelta XOR-reduces the element-wise difference old[i] ^ cur[i]
// to a single word — the quantity the incremental check-bit update needs
// (check ^= Parity(old ^ new), Sec. 3.1). Both slices must have the same
// length.
func FoldLineDelta(old, cur []uint64) uint64 {
	var a0, a1, a2, a3 uint64
	i := 0
	for ; i+4 <= len(cur); i += 4 {
		a0 ^= old[i] ^ cur[i]
		a1 ^= old[i+1] ^ cur[i+1]
		a2 ^= old[i+2] ^ cur[i+2]
		a3 ^= old[i+3] ^ cur[i+3]
	}
	for ; i < len(cur); i++ {
		a0 ^= old[i] ^ cur[i]
	}
	return (a0 ^ a1) ^ (a2 ^ a3)
}

// FoldLineDeltaRef is the single-accumulator reference for FoldLineDelta.
func FoldLineDeltaRef(old, cur []uint64) uint64 {
	var x uint64
	for i := range cur {
		x ^= old[i] ^ cur[i]
	}
	return x
}

// FoldLineParity computes the degree-way interleaved parity of a whole
// line: interleaved parity is linear and stripe-aligned across words, so
// the multi-accumulator XOR fold runs first and a single SWAR log-fold
// finishes.
func FoldLineParity(line []uint64, degree int) uint64 {
	x := FoldLine(line)
	if degree == 8 {
		return Parity8(x)
	}
	return Parity(x, degree)
}

// FoldLineParityRef reduces stripe-by-stripe through the word-level
// reference oracle — an independent evaluation order from the kernel's
// fold-then-parity.
func FoldLineParityRef(line []uint64, degree int) uint64 {
	var out uint64
	for _, w := range line {
		out ^= ParityRef(w, degree)
	}
	return out
}
