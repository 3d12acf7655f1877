package bitops

import (
	"math/rand"
	"testing"
)

// validDegrees are every interleaving degree the kernels accept.
var validDegrees = []int{1, 2, 4, 8, 16, 32, 64}

// swarTestWords is a structured corpus that exercises every byte lane,
// stripe boundary and fold level: single bits, single bytes, stripe
// masks themselves, saturations, and a dense random sample.
func swarTestWords() []uint64 {
	ws := []uint64{0, ^uint64(0), 0x0101010101010101, 0x8080808080808080,
		0xaaaaaaaaaaaaaaaa, 0x5555555555555555, 0xdeadbeefcafebabe}
	for i := 0; i < 64; i++ {
		ws = append(ws, 1<<uint(i), ^uint64(0)^(1<<uint(i)))
	}
	for i := 0; i < 8; i++ {
		ws = append(ws, 0xff<<(8*i))
	}
	for _, d := range validDegrees {
		for p := 0; p < d; p++ {
			ws = append(ws, StripeMask(p, d))
		}
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 4096; i++ {
		ws = append(ws, rng.Uint64())
	}
	return ws
}

// TestParityMatchesRef pins the SWAR fold to the bit-at-a-time oracle
// over the structured corpus, for every valid degree.
func TestParityMatchesRef(t *testing.T) {
	for _, w := range swarTestWords() {
		for _, d := range validDegrees {
			if got, want := Parity(w, d), ParityRef(w, d); got != want {
				t.Fatalf("Parity(%#x, %d) = %#x, ref %#x", w, d, got, want)
			}
		}
	}
}

// TestParity8MatchesRef pins the unrolled degree-8 kernel (the paper's
// evaluated configuration, and the hot path's direct call).
func TestParity8MatchesRef(t *testing.T) {
	for _, w := range swarTestWords() {
		if got, want := Parity8(w), ParityRef(w, 8); got != want {
			t.Fatalf("Parity8(%#x) = %#x, ref %#x", w, got, want)
		}
		if Parity8(w) != Parity(w, 8) {
			t.Fatalf("Parity8(%#x) disagrees with Parity(w, 8)", w)
		}
	}
}

// TestStripeMaskMatchesRef checks the precomputed mask table against the
// generator for every valid (stripe, degree) pair — exhaustive, the
// table is finite.
func TestStripeMaskMatchesRef(t *testing.T) {
	for _, d := range validDegrees {
		for p := 0; p < d; p++ {
			if got, want := StripeMask(p, d), StripeMaskRef(p, d); got != want {
				t.Fatalf("StripeMask(%d, %d) = %#x, ref %#x", p, d, got, want)
			}
		}
	}
}

// TestParityLinearity checks the XOR homomorphism the incremental
// check-bit update (check ^= Parity(old^new)) relies on.
func TestParityLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 4096; i++ {
		a, b := rng.Uint64(), rng.Uint64()
		for _, d := range validDegrees {
			if Parity(a^b, d) != Parity(a, d)^Parity(b, d) {
				t.Fatalf("degree %d: parity not linear at %#x, %#x", d, a, b)
			}
		}
	}
}

// FuzzParitySWAR cross-checks the SWAR kernels against the reference
// oracles on fuzzer-chosen words.
func FuzzParitySWAR(f *testing.F) {
	f.Add(uint64(0), uint8(3))
	f.Add(^uint64(0), uint8(0))
	f.Add(uint64(0xdeadbeefcafebabe), uint8(6))
	f.Fuzz(func(t *testing.T, w uint64, dIdx uint8) {
		d := validDegrees[int(dIdx)%len(validDegrees)]
		if got, want := Parity(w, d), ParityRef(w, d); got != want {
			t.Fatalf("Parity(%#x, %d) = %#x, ref %#x", w, d, got, want)
		}
		if d == 8 {
			if got, want := Parity8(w), ParityRef(w, 8); got != want {
				t.Fatalf("Parity8(%#x) = %#x, ref %#x", w, got, want)
			}
		}
	})
}
