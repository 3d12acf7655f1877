package parity

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSECDEDCleanRoundTrip(t *testing.T) {
	var s SECDED
	f := func(w uint64) bool {
		res := s.Decode(w, s.Encode(w))
		return res.Outcome == SECDEDClean && res.Corrected == w
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSECDEDCorrectsEveryDataBit(t *testing.T) {
	var s SECDED
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		w := rng.Uint64()
		check := s.Encode(w)
		for bit := 0; bit < 64; bit++ {
			res := s.Decode(w^(1<<uint(bit)), check)
			if res.Outcome != SECDEDCorrectedData {
				t.Fatalf("bit %d: outcome %v", bit, res.Outcome)
			}
			if res.Corrected != w {
				t.Fatalf("bit %d: corrected %#x, want %#x", bit, res.Corrected, w)
			}
			if res.DataBit != bit {
				t.Fatalf("bit %d: reported DataBit %d", bit, res.DataBit)
			}
		}
	}
}

func TestSECDEDCorrectsEveryCheckBit(t *testing.T) {
	var s SECDED
	w := uint64(0xfeedfacecafef00d)
	check := s.Encode(w)
	for bit := 0; bit < 8; bit++ {
		res := s.Decode(w, check^(1<<uint(bit)))
		if res.Outcome != SECDEDCorrectedCheck {
			t.Fatalf("check bit %d: outcome %v", bit, res.Outcome)
		}
		if res.Corrected != w {
			t.Fatalf("check bit %d corrupted data", bit)
		}
	}
}

func TestSECDEDDetectsDoubleErrors(t *testing.T) {
	var s SECDED
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		w := rng.Uint64()
		check := s.Encode(w)
		// Flip two distinct codeword bits: choose among 72 positions
		// (64 data + 8 check).
		a, b := rng.Intn(72), rng.Intn(72)
		for b == a {
			b = rng.Intn(72)
		}
		w2, check2 := w, check
		for _, p := range []int{a, b} {
			if p < 64 {
				w2 ^= 1 << uint(p)
			} else {
				check2 ^= 1 << uint(p-64)
			}
		}
		res := s.Decode(w2, check2)
		if res.Outcome != SECDEDDoubleError {
			t.Fatalf("double flip (%d,%d): outcome %v", a, b, res.Outcome)
		}
	}
}

func TestSECDEDOutcomeStrings(t *testing.T) {
	want := map[SECDEDOutcome]string{
		SECDEDClean:          "clean",
		SECDEDCorrectedData:  "corrected-data",
		SECDEDCorrectedCheck: "corrected-check",
		SECDEDDoubleError:    "double-error",
		SECDEDOutcome(99):    "unknown",
	}
	for o, s := range want {
		if o.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(o), o.String(), s)
		}
	}
}

func TestSECDEDInterface(t *testing.T) {
	c := SECDED{}
	if c.Name() != "secded-72-64" || c.CheckBits() != 8 {
		t.Error("SECDED metadata wrong")
	}
	w := uint64(42)
	if c.Decode(w, c.Encode(w)).Outcome != SECDEDClean {
		t.Error("clean word flagged")
	}
	if c.Decode(w^1, c.Encode(w)).Outcome == SECDEDClean {
		t.Error("flipped word not flagged")
	}
}

func TestVerticalParityReconstruct(t *testing.T) {
	var v Vertical
	words := []uint64{0x1111, 0x2222, 0x4444, 0x8888}
	for _, w := range words {
		v.Insert(w)
	}
	// Corrupt words[2]; reconstruct from the others.
	var others uint64
	for i, w := range words {
		if i != 2 {
			others ^= w
		}
	}
	if got := v.Reconstruct(others); got != words[2] {
		t.Fatalf("Reconstruct = %#x, want %#x", got, words[2])
	}
}

func TestVerticalParityWriteRemove(t *testing.T) {
	var v Vertical
	rng := rand.New(rand.NewSource(13))
	live := make([]uint64, 16)
	for i := range live {
		live[i] = rng.Uint64()
		v.Insert(live[i])
	}
	// Random updates via read-before-write.
	for trial := 0; trial < 100; trial++ {
		i := rng.Intn(len(live))
		nw := rng.Uint64()
		v.Write(live[i], nw)
		live[i] = nw
	}
	// Remove half.
	for i := 0; i < 8; i++ {
		v.Remove(live[i])
		live[i] = 0
	}
	var all uint64
	for _, w := range live {
		all ^= w
	}
	if !v.Verify(all) {
		t.Fatal("vertical row inconsistent after updates")
	}
	v.Reset()
	if v.Row() != 0 {
		t.Fatal("Reset did not clear row")
	}
}
