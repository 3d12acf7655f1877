package trace

import (
	"strings"
	"testing"
)

// FuzzParseTrace: arbitrary input must never panic; accepted traces must
// replay without panicking, with aligned addresses and every dependency
// distance in [0, MaxDepDistance].
func FuzzParseTrace(f *testing.F) {
	f.Add("L 0x1000 1 2\nS 0x2000\nB m\nA\n")
	f.Add("# comment only\n")
	f.Add("L")
	f.Add("B m 3 4\nM 1 0\nF\nX 2 2\n")
	f.Add("L 0x1000 128 0\nS 0x8 4294967297 2147483648\n")
	f.Fuzz(func(t *testing.T, src string) {
		fs, err := ParseTrace(strings.NewReader(src))
		if err != nil {
			return
		}
		for i := 0; i < fs.Len()+2; i++ {
			in := fs.Next()
			if (in.Op == OpLoad || in.Op == OpStore) && in.Addr%8 != 0 {
				t.Fatalf("parser accepted misaligned address %#x", in.Addr)
			}
			for _, d := range []int16{in.Dep1, in.Dep2} {
				if d < 0 || d > MaxDepDistance {
					t.Fatalf("parser accepted dependency distance %d (bound %d)", d, MaxDepDistance)
				}
			}
		}
	})
}
