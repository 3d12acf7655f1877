package trace

import (
	"bytes"
	"strings"
	"testing"
)

func TestTraceRoundTrip(t *testing.T) {
	p, _ := ProfileByName("gcc")
	var buf bytes.Buffer
	if err := WriteTrace(&buf, p.NewGen(5), 5000); err != nil {
		t.Fatal(err)
	}
	fs, err := ParseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Len() != 5000 {
		t.Fatalf("Len = %d", fs.Len())
	}
	// Replaying yields the identical stream.
	gen := p.NewGen(5)
	for i := 0; i < 5000; i++ {
		want := gen.Next()
		got := fs.Next()
		if got != want {
			t.Fatalf("instruction %d: got %+v want %+v", i, got, want)
		}
	}
	// And then loops.
	gen2 := p.NewGen(5)
	if got, want := fs.Next(), gen2.Next(); got != want {
		t.Fatalf("loop restart: got %+v want %+v", got, want)
	}
}

func TestParseTraceFormat(t *testing.T) {
	src := `
# a comment
L 0x1000 2 0
S 0x2008
B m
B
A
M
F
X
`
	fs, err := ParseTrace(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if fs.Len() != 8 {
		t.Fatalf("Len = %d", fs.Len())
	}
	in := fs.Next()
	if in.Op != OpLoad || in.Addr != 0x1000 || in.Dep1 != 2 {
		t.Fatalf("load parsed as %+v", in)
	}
	if in := fs.Next(); in.Op != OpStore || in.Addr != 0x2008 {
		t.Fatalf("store parsed as %+v", in)
	}
	if in := fs.Next(); in.Op != OpBranch || !in.Mispredict {
		t.Fatalf("B m parsed as %+v", in)
	}
	if in := fs.Next(); in.Op != OpBranch || in.Mispredict {
		t.Fatalf("B parsed as %+v", in)
	}
	wantOps := []Op{OpInt, OpIntMul, OpFP, OpFPMul}
	for _, w := range wantOps {
		if in := fs.Next(); in.Op != w {
			t.Fatalf("op %v parsed as %+v", w, in)
		}
	}
}

func TestParseTraceErrors(t *testing.T) {
	bad := []string{
		"",                 // empty
		"L",                // missing address
		"L 0xzz",           // bad hex
		"L 0x1001",         // misaligned
		"Q 0x1000",         // unknown op
		"S 0x1000 -1 2",    // negative dep
		"L 0x1000 1 bogus", // bad dep
		// Distances past MaxDepDistance: ones that converting to the
		// int16 field would wrap to 1, negative or 0, and one the core's
		// done ring would alias onto a later instruction.
		"L 0x1000 65537 0",
		"L 0x1000 4294967297 0",
		"L 0x1000 32768 0",
		"L 0x1000 2147483648 0",
		"A 0 129",
	}
	for _, src := range bad {
		if _, err := ParseTrace(strings.NewReader(src)); err == nil {
			t.Errorf("trace %q accepted", src)
		}
	}
	// The bound itself is a legal distance.
	fs, err := ParseTrace(strings.NewReader("L 0x1000 128 128"))
	if err != nil {
		t.Fatal(err)
	}
	if in := fs.Next(); in.Dep1 != MaxDepDistance || in.Dep2 != MaxDepDistance {
		t.Fatalf("boundary distances parsed as %+v", in)
	}
	// The error names the offending line.
	if _, err := ParseTrace(strings.NewReader("A\nL 0x1000 200 0")); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("over-long dependency error = %v, want one naming line 2", err)
	}
}
