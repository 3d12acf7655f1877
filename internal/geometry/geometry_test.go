package geometry

import (
	"math/bits"
	"testing"
	"testing/quick"
)

func testLayout() Layout {
	// 32KB, 2-way, 32B blocks (the paper's L1D): 512 sets, 4 words/block,
	// 4 words per physical row (one block per row).
	return MustLayout(512, 2, 4, 4)
}

func TestNewLayoutValidation(t *testing.T) {
	if _, err := NewLayout(0, 2, 4, 4); err == nil {
		t.Error("zero sets accepted")
	}
	if _, err := NewLayout(512, 2, 4, 0); err == nil {
		t.Error("zero wordsPerRow accepted")
	}
	if _, err := NewLayout(3, 1, 1, 2); err == nil {
		t.Error("non-dividing wordsPerRow accepted")
	}
	if _, err := NewLayout(512, 2, 4, 8); err != nil {
		t.Errorf("valid layout rejected: %v", err)
	}
}

func TestMustLayoutPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustLayout did not panic on invalid input")
		}
	}()
	MustLayout(0, 0, 0, 0)
}

func TestDimensions(t *testing.T) {
	l := testLayout()
	if got := l.TotalWords(); got != 512*2*4 {
		t.Errorf("TotalWords = %d", got)
	}
	if got := l.Rows(); got != 1024 {
		t.Errorf("Rows = %d", got)
	}
	if got := l.RowBits(); got != 256 {
		t.Errorf("RowBits = %d", got)
	}
}

func TestCoordRoundTrip(t *testing.T) {
	l := testLayout()
	f := func(setRaw, wayRaw, wordRaw uint16) bool {
		set := int(setRaw) % l.Sets
		way := int(wayRaw) % l.Ways
		word := int(wordRaw) % l.WordsPerBlock
		s2, w2, d2 := l.LogicalOf(l.CoordOf(set, way, word))
		return s2 == set && w2 == way && d2 == word
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClassesCycle(t *testing.T) {
	l := testLayout()
	for row := 0; row < 32; row++ {
		if got := l.Class(row); got != row%8 {
			t.Errorf("Class(%d) = %d", row, got)
		}
	}
	// Vertically adjacent words are in different classes.
	a := l.ClassOf(0, 0, 0)
	set, way, word := l.LogicalOf(Coord{Row: 1, Col: 0})
	b := l.ClassOf(set, way, word)
	if a == b {
		t.Error("vertically adjacent words share a rotation class")
	}
}

func TestFlipsSingleCell(t *testing.T) {
	l := testLayout()
	fl := l.Flips(SpatialFault{Row: 5, BitCol: 70, Height: 1, Width: 1})
	if len(fl) != 1 {
		t.Fatalf("Flips = %v", fl)
	}
	// Bit column 70 = word column 1, bit 6.
	if fl[0].Mask != 1<<6 {
		t.Errorf("mask = %#x", fl[0].Mask)
	}
	set, way, word := l.LogicalOf(Coord{Row: 5, Col: 1})
	if fl[0].Set != set || fl[0].Way != way || fl[0].Word != word {
		t.Errorf("wrong word: %+v", fl[0])
	}
}

func TestFlipsVerticalColumn(t *testing.T) {
	l := testLayout()
	fl := l.Flips(SpatialFault{Row: 0, BitCol: 0, Height: 3, Width: 1})
	if len(fl) != 3 {
		t.Fatalf("want 3 affected words, got %d", len(fl))
	}
	for i, f := range fl {
		if f.Mask != 1 {
			t.Errorf("word %d mask = %#x", i, f.Mask)
		}
	}
}

func TestFlipsCrossWordBoundary(t *testing.T) {
	l := testLayout()
	// 7-bit horizontal fault across bits 62-63 of word 0 and 0-4 of word 1
	// (the Sec. 3.6 example).
	fl := l.Flips(SpatialFault{Row: 2, BitCol: 62, Height: 1, Width: 7})
	if len(fl) != 2 {
		t.Fatalf("want 2 affected words, got %v", fl)
	}
	if fl[0].Mask != (uint64(1)<<62)|(uint64(1)<<63) {
		t.Errorf("left word mask = %#x", fl[0].Mask)
	}
	if fl[1].Mask != 0x1f {
		t.Errorf("right word mask = %#x", fl[1].Mask)
	}
}

func TestFlipsClipped(t *testing.T) {
	l := testLayout()
	// Anchored at the last row and right edge: clipped, no panic.
	fl := l.Flips(SpatialFault{Row: l.Rows() - 1, BitCol: l.RowBits() - 2, Height: 8, Width: 8})
	if len(fl) != 1 {
		t.Fatalf("want 1 affected word after clipping, got %d", len(fl))
	}
	if bits.OnesCount64(fl[0].Mask) != 2 {
		t.Errorf("want 2 flipped bits, got %d", bits.OnesCount64(fl[0].Mask))
	}
	// Fully out of bounds.
	if fl := l.Flips(SpatialFault{Row: -10, BitCol: 0, Height: 2, Width: 2}); len(fl) != 0 {
		t.Errorf("out-of-bounds fault flipped cells: %v", fl)
	}
}

func TestFlips8x8TouchesEightClasses(t *testing.T) {
	l := testLayout()
	fl := l.Flips(SpatialFault{Row: 0, BitCol: 16, Height: 8, Width: 8})
	classes := map[int]bool{}
	for _, f := range fl {
		classes[l.ClassOf(f.Set, f.Way, f.Word)] = true
		if bits.OnesCount64(f.Mask) != 8 {
			t.Errorf("word %+v flips %d bits, want 8", f, bits.OnesCount64(f.Mask))
		}
	}
	if len(classes) != 8 {
		t.Errorf("8x8 fault touched %d classes, want 8", len(classes))
	}
}

func TestWordIndexMonotone(t *testing.T) {
	l := testLayout()
	prev := -1
	for set := 0; set < 4; set++ {
		for way := 0; way < l.Ways; way++ {
			for word := 0; word < l.WordsPerBlock; word++ {
				idx := l.WordIndex(set, way, word)
				if idx != prev+1 {
					t.Fatalf("WordIndex(%d,%d,%d) = %d, want %d", set, way, word, idx, prev+1)
				}
				prev = idx
			}
		}
	}
}

func TestFlipsBitInterleaved(t *testing.T) {
	l := MustLayout(512, 2, 4, 8)
	l.BitInterleaved = true
	// An 8-wide burst starting at column 0 hits bit 0 of each of the 8
	// words in the row — one bit per word.
	fl := l.Flips(SpatialFault{Row: 0, BitCol: 0, Height: 1, Width: 8})
	if len(fl) != 8 {
		t.Fatalf("want 8 words, got %d", len(fl))
	}
	for _, f := range fl {
		if f.Mask != 1 {
			t.Errorf("word %+v mask %#x, want bit 0 only", f, f.Mask)
		}
	}
	// Column 8 is bit 1 of word 0.
	fl = l.Flips(SpatialFault{Row: 0, BitCol: 8, Height: 1, Width: 1})
	if len(fl) != 1 || fl[0].Mask != 2 {
		t.Fatalf("column 8: %+v", fl)
	}
	// A 16-wide burst is 2 bits per word: beyond 8-way interleaving.
	fl = l.Flips(SpatialFault{Row: 0, BitCol: 0, Height: 1, Width: 16})
	if len(fl) != 8 {
		t.Fatalf("16-wide: want 8 words, got %d", len(fl))
	}
	for _, f := range fl {
		if bits.OnesCount64(f.Mask) != 2 {
			t.Errorf("16-wide: word mask %#x, want 2 bits", f.Mask)
		}
	}
}
