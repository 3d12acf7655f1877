// Package geometry models the physical organization of a cache data array:
// a grid of SRAM rows, each holding one or more 64-bit words side by side.
//
// Two of the paper's mechanisms are defined in terms of this physical view
// rather than the logical (set, way) view:
//
//   - rotation classes: "three bits of the Store address specify eight
//     separate amounts of rotation for eight different data array rows"
//     (Sec. 4.3) — the class of a word is its physical row modulo 8;
//   - spatial multi-bit errors: a particle strike flips bits inside an
//     NxN square of physically adjacent cells, which may span several rows
//     and cross word boundaries within a row (Sec. 4).
package geometry

import (
	"fmt"

	"cppc/internal/bitops"
)

// NumClasses is the number of rotation classes (and the height/width of the
// spatial-fault square the byte-shifted CPPC is designed to correct).
const NumClasses = 8

// Layout maps logical word coordinates (set, way, word-in-block) to
// physical array coordinates (row, column) and back.
type Layout struct {
	Sets          int // number of sets
	Ways          int // associativity
	WordsPerBlock int // 64-bit words per cache block
	WordsPerRow   int // physical words stored side by side in one SRAM row

	// BitInterleaved selects physical bit interleaving within a row: bit
	// column c belongs to word c mod WordsPerRow, bit c / WordsPerRow —
	// adjacent cells hold bits of different words, so a spatial burst
	// becomes single-bit errors in several words (the SECDED companion
	// technique of Secs. 1 and 6). Without it, words occupy contiguous
	// 64-bit column spans.
	BitInterleaved bool
}

// NewLayout builds a layout and validates its parameters. Blocks are laid
// out in logical order ((set*Ways+way)*WordsPerBlock + word) across rows of
// WordsPerRow words each, mirroring a banked SRAM floorplan.
func NewLayout(sets, ways, wordsPerBlock, wordsPerRow int) (Layout, error) {
	l := Layout{Sets: sets, Ways: ways, WordsPerBlock: wordsPerBlock, WordsPerRow: wordsPerRow}
	switch {
	case sets <= 0 || ways <= 0 || wordsPerBlock <= 0:
		return Layout{}, fmt.Errorf("geometry: non-positive dimension in %+v", l)
	case wordsPerRow <= 0:
		return Layout{}, fmt.Errorf("geometry: wordsPerRow must be positive, got %d", wordsPerRow)
	case (sets*ways*wordsPerBlock)%wordsPerRow != 0:
		return Layout{}, fmt.Errorf("geometry: %d words do not fill rows of %d", sets*ways*wordsPerBlock, wordsPerRow)
	}
	return l, nil
}

// MustLayout is NewLayout that panics on error; for tests and fixed configs.
func MustLayout(sets, ways, wordsPerBlock, wordsPerRow int) Layout {
	l, err := NewLayout(sets, ways, wordsPerBlock, wordsPerRow)
	if err != nil {
		panic(err)
	}
	return l
}

// TotalWords is the number of 64-bit words in the data array.
func (l Layout) TotalWords() int { return l.Sets * l.Ways * l.WordsPerBlock }

// Rows is the number of physical rows.
func (l Layout) Rows() int { return l.TotalWords() / l.WordsPerRow }

// RowBits is the width of one physical row in bits.
func (l Layout) RowBits() int { return l.WordsPerRow * bitops.WordBits }

// WordIndex returns the linear index of word `word` of block (set, way).
func (l Layout) WordIndex(set, way, word int) int {
	return (set*l.Ways+way)*l.WordsPerBlock + word
}

// Coord is a physical coordinate: row and word-column within the row.
type Coord struct {
	Row int // physical row index
	Col int // word column within the row (0..WordsPerRow-1)
}

// CoordOf maps a logical word to its physical coordinate.
func (l Layout) CoordOf(set, way, word int) Coord {
	idx := l.WordIndex(set, way, word)
	return Coord{Row: idx / l.WordsPerRow, Col: idx % l.WordsPerRow}
}

// LogicalOf inverts CoordOf.
func (l Layout) LogicalOf(c Coord) (set, way, word int) {
	idx := c.Row*l.WordsPerRow + c.Col
	word = idx % l.WordsPerBlock
	blk := idx / l.WordsPerBlock
	way = blk % l.Ways
	set = blk / l.Ways
	return set, way, word
}

// Class returns the rotation class of a physical row: row mod 8. All words
// in the same row share a class; vertically adjacent words differ by one
// class, which is what lets byte shifting separate their bits inside the
// register pair.
func (l Layout) Class(row int) int { return ((row % NumClasses) + NumClasses) % NumClasses }

// ClassOf is Class applied to a logical word.
func (l Layout) ClassOf(set, way, word int) int { return l.Class(l.CoordOf(set, way, word).Row) }

// CellFlip identifies one flipped bit: which logical word, and which bit of
// that word.
type CellFlip struct {
	Set, Way, Word int
	Bit            int // 0..63 within the word
}

// SpatialFault describes an HxW square of flipped cells anchored at
// physical row Row and absolute bit column BitCol (0 ..
// RowBits-1). Height is in rows, Width in bit columns. A fault that runs
// past the right edge of the array is clipped (strikes at the array edge
// flip fewer cells).
type SpatialFault struct {
	Row    int
	BitCol int
	Height int
	Width  int
}

// Flips enumerates every cell the fault flips, grouped per logical word
// with the affected bits merged into a mask.
type WordFlips struct {
	Set, Way, Word int
	Mask           uint64
}

// Flips expands the fault into per-word bit masks. Faults are clipped to
// the array bounds.
func (l Layout) Flips(f SpatialFault) []WordFlips {
	type key struct{ set, way, word int }
	acc := make(map[key]uint64)
	var order []key
	for dr := 0; dr < f.Height; dr++ {
		row := f.Row + dr
		if row < 0 || row >= l.Rows() {
			continue
		}
		for dc := 0; dc < f.Width; dc++ {
			bc := f.BitCol + dc
			if bc < 0 || bc >= l.RowBits() {
				continue
			}
			var col, bit int
			if l.BitInterleaved {
				col = bc % l.WordsPerRow
				bit = bc / l.WordsPerRow
			} else {
				col = bc / bitops.WordBits
				bit = bc % bitops.WordBits
			}
			set, way, word := l.LogicalOf(Coord{Row: row, Col: col})
			k := key{set, way, word}
			if _, seen := acc[k]; !seen {
				order = append(order, k)
			}
			acc[k] |= 1 << uint(bit)
		}
	}
	out := make([]WordFlips, 0, len(order))
	for _, k := range order {
		out = append(out, WordFlips{Set: k.set, Way: k.way, Word: k.word, Mask: acc[k]})
	}
	return out
}
