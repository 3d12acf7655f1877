package parity

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestNewHammingValidation(t *testing.T) {
	for _, bits := range []int{0, -64, 63, 100, 2048} {
		if _, err := NewHamming(bits); err == nil {
			t.Errorf("NewHamming(%d) accepted", bits)
		}
	}
	h := MustHamming(256)
	if h.CheckBits() != 10 { // 9 Hamming bits + overall parity for 256 data bits
		t.Errorf("CheckBits(256) = %d, want 10", h.CheckBits())
	}
	if MustHamming(64).CheckBits() != 8 {
		t.Error("Hamming(64) should need 8 check bits, matching SECDED (72,64)")
	}
	if h.Name() != "secded-266-256" {
		t.Errorf("Name = %q", h.Name())
	}
}

func TestMustHammingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustHamming(63) did not panic")
		}
	}()
	MustHamming(63)
}

func TestHammingCleanRoundTrip(t *testing.T) {
	for _, dataBits := range []int{64, 128, 256, 512} {
		h := MustHamming(dataBits)
		rng := rand.New(rand.NewSource(int64(dataBits)))
		for trial := 0; trial < 50; trial++ {
			data := make([]uint64, dataBits/64)
			for i := range data {
				data[i] = rng.Uint64()
			}
			res := h.Decode(data, h.Encode(data))
			if res.Outcome != SECDEDClean {
				t.Fatalf("Hamming(%d): clean decode = %v", dataBits, res.Outcome)
			}
		}
	}
}

func TestHammingCorrectsEveryDataBit(t *testing.T) {
	h := MustHamming(256)
	rng := rand.New(rand.NewSource(21))
	data := make([]uint64, 4)
	for i := range data {
		data[i] = rng.Uint64()
	}
	check := h.Encode(data)
	for bit := 0; bit < 256; bit++ {
		data[bit/64] ^= 1 << uint(bit%64)
		res := h.Decode(data, check)
		if res.Outcome != SECDEDCorrectedData || res.DataBit != bit {
			t.Fatalf("bit %d: outcome %v, DataBit %d", bit, res.Outcome, res.DataBit)
		}
		data[bit/64] ^= 1 << uint(bit%64)
	}
}

func TestHammingCorrectsCheckBits(t *testing.T) {
	h := MustHamming(256)
	data := []uint64{1, 2, 3, 4}
	check := h.Encode(data)
	for bit := 0; bit < h.CheckBits(); bit++ {
		res := h.Decode(data, check^(1<<uint(bit)))
		if res.Outcome != SECDEDCorrectedCheck {
			t.Fatalf("check bit %d: outcome %v", bit, res.Outcome)
		}
	}
}

func TestHammingDetectsDoubleErrors(t *testing.T) {
	h := MustHamming(256)
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 300; trial++ {
		data := make([]uint64, 4)
		for i := range data {
			data[i] = rng.Uint64()
		}
		check := h.Encode(data)
		a, b := rng.Intn(256), rng.Intn(256)
		for b == a {
			b = rng.Intn(256)
		}
		data[a/64] ^= 1 << uint(a%64)
		data[b/64] ^= 1 << uint(b%64)
		if res := h.Decode(data, check); res.Outcome != SECDEDDoubleError {
			t.Fatalf("double flip (%d,%d): %v", a, b, res.Outcome)
		}
	}
}

func TestHammingAgreesWithSECDED64OnOutcomes(t *testing.T) {
	// The generic code at width 64 must store exactly the check bits of
	// the fixed-width (72,64) reference and classify data-bit errors the
	// same way.
	h := MustHamming(64)
	var s SECDED
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		w := rng.Uint64()
		if g, want := h.Encode([]uint64{w}), s.Encode(w); g != want {
			t.Fatalf("Encode(%#x) = %#x, SECDED.Encode = %#x", w, g, want)
		}
		nflips := 1 + rng.Intn(2)
		mask := uint64(0)
		for len(positions(mask)) < nflips {
			mask |= 1 << uint(rng.Intn(64))
		}
		gotG := h.Decode([]uint64{w ^ mask}, h.Encode([]uint64{w}))
		gotS := s.Decode(w^mask, s.Encode(w))
		if gotG.Outcome != gotS.Outcome {
			t.Fatalf("mask %#x: generic %v, specialized %v", mask, gotG.Outcome, gotS.Outcome)
		}
	}
}

// hammingInputs returns the Encode/EncodeRef equivalence inputs for a
// width: dense random buffers, all zeros, all ones and every single-bit
// buffer.
func hammingInputs(dataBits int, rng *rand.Rand) [][]uint64 {
	words := dataBits / 64
	var out [][]uint64
	for trial := 0; trial < 64; trial++ {
		data := make([]uint64, words)
		for i := range data {
			data[i] = rng.Uint64()
		}
		out = append(out, data)
	}
	ones := make([]uint64, words)
	for i := range ones {
		ones[i] = ^uint64(0)
	}
	out = append(out, make([]uint64, words), ones)
	for bit := 0; bit < dataBits; bit++ {
		data := make([]uint64, words)
		data[bit/64] = 1 << uint(bit%64)
		out = append(out, data)
	}
	return out
}

func TestHammingEncodeMatchesRef(t *testing.T) {
	for _, dataBits := range []int{64, 128, 256, 512, 1024} {
		h := MustHamming(dataBits)
		rng := rand.New(rand.NewSource(int64(dataBits) + 24))
		for _, data := range hammingInputs(dataBits, rng) {
			if got, want := h.Encode(data), h.EncodeRef(data); got != want {
				t.Fatalf("Hamming(%d).Encode(%#x) = %#x, EncodeRef = %#x", dataBits, data, got, want)
			}
		}
	}
}

// hammingSink keeps benchmarked encodes from being optimized away.
var hammingSink uint64

// BenchmarkHammingEncode pairs the word-parallel Encode with the
// bit-serial EncodeRef on the same dense buffer, at the L1 word width and
// the L2 block width.
func BenchmarkHammingEncode(b *testing.B) {
	for _, dataBits := range []int{64, 256} {
		h := MustHamming(dataBits)
		rng := rand.New(rand.NewSource(25))
		data := make([]uint64, dataBits/64)
		for i := range data {
			data[i] = rng.Uint64()
		}
		for _, k := range []struct {
			name string
			fn   func([]uint64) uint64
		}{{"Encode", h.Encode}, {"EncodeRef", h.EncodeRef}} {
			b.Run(fmt.Sprintf("%s/%d", k.name, dataBits), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					hammingSink ^= k.fn(data)
				}
			})
		}
	}
}

// BenchmarkHammingDecode times a clean decode at the L1 word width, the
// per-word code protect.SECDEDScheme runs on every verify, and at the L2
// block width.
func BenchmarkHammingDecode(b *testing.B) {
	for _, dataBits := range []int{64, 256} {
		h := MustHamming(dataBits)
		data := []uint64{0xdeadbeefcafebabe, 2, 3, 4}[:dataBits/64]
		check := h.Encode(data)
		b.Run(fmt.Sprint(dataBits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if res := h.Decode(data, check); res.Outcome != SECDEDClean {
					b.Fatal("decode broke")
				}
			}
		})
	}
}

// BenchmarkSECDEDDecode times a clean decode of the fixed-width (72,64)
// reference, which no simulation calls; BenchmarkHammingDecode/64 times
// the code the L1 runs.
func BenchmarkSECDEDDecode(b *testing.B) {
	var s SECDED
	const w = uint64(0xdeadbeefcafebabe)
	check := s.Encode(w)
	for i := 0; i < b.N; i++ {
		if res := s.Decode(w, check); res.Outcome != SECDEDClean {
			b.Fatal("decode broke")
		}
	}
}

func positions(w uint64) []int {
	var out []int
	for i := 0; i < 64; i++ {
		if w&(1<<uint(i)) != 0 {
			out = append(out, i)
		}
	}
	return out
}
