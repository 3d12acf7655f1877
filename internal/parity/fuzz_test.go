package parity

import "testing"

// FuzzSECDEDDecode: decoding any (word, check) pair must never panic and
// must classify consistently: re-decoding the corrected output is clean.
func FuzzSECDEDDecode(f *testing.F) {
	var s SECDED
	f.Add(uint64(0), uint64(0))
	f.Add(^uint64(0), uint64(0xff))
	f.Add(uint64(0xdeadbeef), s.Encode(0xdeadbeef))
	f.Fuzz(func(t *testing.T, w, check uint64) {
		res := s.Decode(w, check&0xff)
		switch res.Outcome {
		case SECDEDCorrectedData:
			// The corrected word with freshly encoded check bits is clean.
			if again := s.Decode(res.Corrected, s.Encode(res.Corrected)); again.Outcome != SECDEDClean {
				t.Fatalf("corrected output not clean: %v", again.Outcome)
			}
			if res.DataBit < 0 || res.DataBit > 63 {
				t.Fatalf("DataBit %d out of range", res.DataBit)
			}
		case SECDEDClean:
			if res.Corrected != w {
				t.Fatal("clean decode altered the data")
			}
		}
	})
}

// FuzzHamming256Decode: the block-level code at any received state.
func FuzzHamming256Decode(f *testing.F) {
	h := MustHamming(256)
	f.Add(uint64(1), uint64(2), uint64(3), uint64(4), uint64(0))
	f.Fuzz(func(t *testing.T, a, b, c, d, check uint64) {
		data := []uint64{a, b, c, d}
		res := h.Decode(data, check&0x3ff)
		if res.Outcome == SECDEDCorrectedData && (res.DataBit < 0 || res.DataBit > 255) {
			t.Fatalf("DataBit %d out of range", res.DataBit)
		}
	})
}

// FuzzHammingEncodeMatchesRef: at the L1 word width and the L2 block
// width, the word-parallel Encode equals the bit-serial EncodeRef on any
// data, and flipping any one data bit decodes to exactly that bit.
func FuzzHammingEncodeMatchesRef(f *testing.F) {
	codes := []*Hamming{MustHamming(64), MustHamming(256)}
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), uint16(0))
	f.Add(^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), uint16(255))
	f.Add(uint64(0xdeadbeef), uint64(1), uint64(1<<63), uint64(0x5555), uint16(70))
	f.Fuzz(func(t *testing.T, a, b, c, d uint64, bit uint16) {
		for _, h := range codes {
			data := []uint64{a, b, c, d}[:h.dataBits/64]
			check := h.Encode(data)
			if want := h.EncodeRef(data); check != want {
				t.Fatalf("Hamming(%d).Encode(%#x) = %#x, EncodeRef = %#x", h.dataBits, data, check, want)
			}
			i := int(bit) % h.dataBits
			flipped := append([]uint64(nil), data...)
			flipped[i/64] ^= 1 << uint(i%64)
			res := h.Decode(flipped, check)
			if res.Outcome != SECDEDCorrectedData || res.DataBit != i {
				t.Fatalf("Hamming(%d) flip of bit %d: outcome %v, DataBit %d", h.dataBits, i, res.Outcome, res.DataBit)
			}
		}
	})
}
