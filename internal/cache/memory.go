package cache

// Backing is the next level below a cache controller: either main memory
// or another (protected) cache level.
type Backing interface {
	// FetchBlock reads the block containing addr (block-aligned inside)
	// into dst and returns the access latency in cycles.
	FetchBlock(addr uint64, dst []uint64, now uint64) int
	// WriteBackBlock accepts an evicted dirty block.
	WriteBackBlock(addr uint64, src []uint64, now uint64)
}

// Memory is the golden backing store: a sparse word-indexed PageTable
// that is never subject to faults. It doubles as the reference copy that
// fault campaigns compare recovered data against.
type Memory struct {
	words        PageTable[uint64] // indexed by word (address >> 3)
	blockBytes   int
	LatencyCycle int // Fetch latency (e.g. ~200 cycles at 3GHz DRAM)

	Fetches    uint64
	WriteBacks uint64
}

// NewMemory creates a memory serving blocks of the given size.
func NewMemory(blockBytes, latency int) *Memory {
	return &Memory{blockBytes: blockBytes, LatencyCycle: latency}
}

// Reset returns the memory to its freshly-constructed state in place,
// keeping its pages: the trial executor's per-worker arenas reuse one
// Memory across trials, so a same-footprint trial allocates nothing.
func (m *Memory) Reset() {
	m.words.Reset()
	m.Fetches, m.WriteBacks = 0, 0
}

// Release hands the memory's pages on to the next Memory to be written
// (see PageTable.Release). The memory must not be used afterwards.
func (m *Memory) Release() { m.words.Release() }

// ReadWord returns the golden value at a word-aligned address.
func (m *Memory) ReadWord(addr uint64) uint64 { return m.words.Get(addr >> 3) }

// WriteWord stores a golden value at a word-aligned address.
func (m *Memory) WriteWord(addr uint64, v uint64) { m.words.Set(addr>>3, v) }

// FetchBlock implements Backing.
func (m *Memory) FetchBlock(addr uint64, dst []uint64, _ uint64) int {
	m.Fetches++
	m.words.Read((addr&^uint64(m.blockBytes-1))>>3, dst)
	return m.LatencyCycle
}

// WriteBackBlock implements Backing.
func (m *Memory) WriteBackBlock(addr uint64, src []uint64, _ uint64) {
	m.WriteBacks++
	m.words.Write((addr&^uint64(m.blockBytes-1))>>3, src)
}
