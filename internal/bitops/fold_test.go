package bitops

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// foldTestLines builds a corpus of lines exercising every unroll
// remainder (lengths 0..17 hit all i%4 tails twice), plus long lines and
// structured contents (stripe masks, saturations, single bits).
func foldTestLines() [][]uint64 {
	var lines [][]uint64
	words := swarTestWords()
	rng := rand.New(rand.NewSource(41))
	for n := 0; n <= 17; n++ {
		ln := make([]uint64, n)
		for i := range ln {
			ln[i] = words[rng.Intn(len(words))]
		}
		lines = append(lines, ln)
	}
	for _, n := range []int{32, 64, 257} {
		ln := make([]uint64, n)
		for i := range ln {
			ln[i] = rng.Uint64()
		}
		lines = append(lines, ln)
	}
	return lines
}

// TestFoldLineMatchesRef pins the 4-accumulator fold to the serial
// single-accumulator oracle for every tail length.
func TestFoldLineMatchesRef(t *testing.T) {
	for _, ln := range foldTestLines() {
		if got, want := FoldLine(ln), FoldLineRef(ln); got != want {
			t.Fatalf("FoldLine(len=%d) = %#x, ref %#x", len(ln), got, want)
		}
	}
}

// TestFoldLineDeltaMatchesRef pins the delta fold, and checks it equals
// FoldLine(old) ^ FoldLine(cur) — the linearity the incremental
// check-bit path relies on.
func TestFoldLineDeltaMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, cur := range foldTestLines() {
		old := make([]uint64, len(cur))
		for i := range old {
			old[i] = rng.Uint64()
		}
		got := FoldLineDelta(old, cur)
		if want := FoldLineDeltaRef(old, cur); got != want {
			t.Fatalf("FoldLineDelta(len=%d) = %#x, ref %#x", len(cur), got, want)
		}
		if want := FoldLine(old) ^ FoldLine(cur); got != want {
			t.Fatalf("FoldLineDelta(len=%d) = %#x, FoldLine xor %#x", len(cur), got, want)
		}
	}
}

// TestFoldLineParityMatchesRef pins fold-then-parity against the
// stripe-by-stripe reference reduction for every valid degree.
func TestFoldLineParityMatchesRef(t *testing.T) {
	for _, ln := range foldTestLines() {
		for _, d := range validDegrees {
			if got, want := FoldLineParity(ln, d), FoldLineParityRef(ln, d); got != want {
				t.Fatalf("FoldLineParity(len=%d, %d) = %#x, ref %#x", len(ln), d, got, want)
			}
		}
	}
}

// FuzzFoldLine cross-checks all fold kernels against their oracles on
// fuzzer-chosen byte strings (interpreted as little-endian words; the
// remainder bytes vary the line length across all unroll tails).
func FuzzFoldLine(f *testing.F) {
	f.Add([]byte{}, uint8(3))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(0))
	f.Add(make([]byte, 8*9), uint8(6))
	f.Fuzz(func(t *testing.T, raw []byte, dIdx uint8) {
		d := validDegrees[int(dIdx)%len(validDegrees)]
		n := len(raw) / 8
		if n > 4096 {
			n = 4096
		}
		line := make([]uint64, n)
		old := make([]uint64, n)
		for i := range line {
			line[i] = binary.LittleEndian.Uint64(raw[i*8:])
			old[i] = line[i]*0x9e3779b97f4a7c15 + 1
		}
		if got, want := FoldLine(line), FoldLineRef(line); got != want {
			t.Fatalf("FoldLine = %#x, ref %#x", got, want)
		}
		if got, want := FoldLineDelta(old, line), FoldLineDeltaRef(old, line); got != want {
			t.Fatalf("FoldLineDelta = %#x, ref %#x", got, want)
		}
		if got, want := FoldLineParity(line, d), FoldLineParityRef(line, d); got != want {
			t.Fatalf("FoldLineParity(%d) = %#x, ref %#x", d, got, want)
		}
	})
}

// foldSink keeps benchmarked folds from being optimized away.
var foldSink uint64

// BenchmarkFoldLine pairs the four-accumulator FoldLine with its
// single-accumulator FoldLineRef on the same full 8-word (64-byte) line,
// the kernel's widest committed shape. Each calls its kernel directly,
// as the protection code does; a call through a function value would
// time the call instead.
func BenchmarkFoldLine(b *testing.B) {
	line := make([]uint64, 8)
	for i := range line {
		line[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
	}
	b.Run("FoldLine", func(b *testing.B) {
		var x uint64
		for i := 0; i < b.N; i++ {
			x ^= FoldLine(line)
		}
		foldSink = x
	})
	b.Run("FoldLineRef", func(b *testing.B) {
		var x uint64
		for i := 0; i < b.N; i++ {
			x ^= FoldLineRef(line)
		}
		foldSink = x
	})
}
