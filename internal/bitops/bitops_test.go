package bitops

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRotlBytesBasic(t *testing.T) {
	cases := []struct {
		w    uint64
		n    int
		want uint64
	}{
		{0x0102030405060708, 0, 0x0102030405060708},
		{0x0102030405060708, 1, 0x0203040506070801},
		{0x0102030405060708, 7, 0x0801020304050607},
		{0x0102030405060708, 8, 0x0102030405060708},
		{0x00000000000000ff, 1, 0x000000000000ff00},
		{0xff00000000000000, 1, 0x00000000000000ff},
	}
	for _, c := range cases {
		if got := RotlBytes(c.w, c.n); got != c.want {
			t.Errorf("RotlBytes(%#x, %d) = %#x, want %#x", c.w, c.n, got, c.want)
		}
	}
}

func TestRotlNegativeAndLarge(t *testing.T) {
	w := uint64(0xdeadbeefcafebabe)
	for n := -20; n <= 20; n++ {
		a := RotlBytes(w, n)
		b := RotlBytes(w, n+8)
		if a != b {
			t.Errorf("rotation not periodic mod 8 at n=%d: %#x vs %#x", n, a, b)
		}
	}
}

func TestRotrInvertsRotl(t *testing.T) {
	f := func(w uint64, n int) bool {
		return RotrBytes(RotlBytes(w, n), n) == w
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRotlDistributesOverXOR(t *testing.T) {
	// The recovery algorithm depends on rotation being linear over XOR.
	f := func(a, b uint64, n int) bool {
		return RotlBytes(a^b, n) == RotlBytes(a, n)^RotlBytes(b, n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStripeMask(t *testing.T) {
	// Degree 8, stripe 0 covers bits 0, 8, ..., 56.
	want := uint64(0x0101010101010101)
	if got := StripeMask(0, 8); got != want {
		t.Errorf("StripeMask(0,8) = %#x, want %#x", got, want)
	}
	// Degree 1 covers everything.
	if got := StripeMask(0, 1); got != ^uint64(0) {
		t.Errorf("StripeMask(0,1) = %#x", got)
	}
	// Stripes of a degree partition the word.
	for _, degree := range []int{1, 2, 4, 8, 16, 32, 64} {
		var union uint64
		for p := 0; p < degree; p++ {
			m := StripeMask(p, degree)
			if union&m != 0 {
				t.Errorf("degree %d: stripe %d overlaps", degree, p)
			}
			union |= m
		}
		if union != ^uint64(0) {
			t.Errorf("degree %d: stripes do not cover the word", degree)
		}
	}
}

func TestStripeMaskPanicsOnBadDegree(t *testing.T) {
	for _, degree := range []int{0, -1, 3, 65, 7} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("StripeMask(0, %d) did not panic", degree)
				}
			}()
			StripeMask(0, degree)
		}()
	}
}

func TestParityDetectsSingleBit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		w := rng.Uint64()
		p := Parity(w, 8)
		bit := rng.Intn(64)
		w2 := w ^ (1 << uint(bit))
		p2 := Parity(w2, 8)
		syn := p ^ p2
		if syn == 0 {
			t.Fatalf("single-bit flip at %d undetected", bit)
		}
		stripes := FaultyStripes(syn, 8)
		if len(stripes) != 1 || stripes[0] != bit%8 {
			t.Fatalf("flip at %d flagged stripes %v", bit, stripes)
		}
	}
}

func TestParityDetectsHorizontalBursts(t *testing.T) {
	// 8-way interleaving detects any horizontal burst of <= 8 bits within a
	// word (each stripe sees at most one flip).
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		w := rng.Uint64()
		width := 1 + rng.Intn(8)
		start := rng.Intn(64 - width + 1)
		var mask uint64
		for i := 0; i < width; i++ {
			mask |= 1 << uint(start+i)
		}
		if Parity(w, 8)^Parity(w^mask, 8) == 0 {
			t.Fatalf("burst width %d at %d undetected", width, start)
		}
	}
}

func TestParityMissesAlignedDoubleFlip(t *testing.T) {
	// Two flips in the same stripe are invisible — the reason plain parity
	// needs interleaving and CPPC needs Tavg-bounded vulnerability windows.
	w := uint64(0x1234)
	mask := uint64(1)<<0 | uint64(1)<<8 // both in stripe 0 of degree 8
	if Parity(w, 8)^Parity(w^mask, 8) != 0 {
		t.Fatal("aligned double flip unexpectedly detected")
	}
}

func TestOnesPositions(t *testing.T) {
	got := OnesPositions(0b10110)
	want := []int{1, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("OnesPositions = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("OnesPositions = %v, want %v", got, want)
		}
	}
	if len(OnesPositions(0)) != 0 {
		t.Fatal("OnesPositions(0) not empty")
	}
}
