package trace

import "sync"

// Stream memoization for single-core readers. Generation is
// deterministic for a given (profile, seed), and the single-core
// experiments re-draw the same stream many times over: Fig. 10 runs
// three protection schemes per benchmark, the L3 study three placements,
// and benchmark iterations repeat whole cells. A memoized stream
// materializes the instruction prefix once, process-wide, and every
// subsequent reader copies it instead of re-running the generator —
// bit-identical by construction, since the memo holds exactly the stream
// the generator would produce. The Sec. 7 per-core streams (CoreGen) are
// not memoized: a multicore cell reads them ahead on spare workers
// instead.
const (
	// memoMaxStreams bounds how many distinct streams stay resident;
	// past it, eviction recycles an arbitrary slot so a seed sweep
	// cannot pin unbounded memory.
	memoMaxStreams = 32
	// memoMaxInstrs bounds the materialized prefix per stream (4 MiB of
	// 16-byte Instrs). Readers that outrun it fork the parked generator
	// by value and continue privately. It is a whole number of chunks.
	memoMaxInstrs = 1 << 18
	// memoGrowChunk is the unit the prefix grows by: each chunk is
	// allocated once at this size and never copied, and alternating
	// readers do not generate one tiny extension per demand.
	memoGrowChunk = 4096
)

// memoKey identifies a base (profile, seed) stream. Profile is
// comparable (scalars plus the name), so the struct is directly usable
// as a map key.
type memoKey struct {
	p    Profile
	seed int64
}

// memoStream is one shared stream: the materialized prefix, as a list
// of full chunks that is only ever appended to, and the generator
// parked at its end. Chunks are never mutated after they are published,
// so readers may hold list snapshots taken under the lock and copy from
// them lock-free.
type memoStream struct {
	mu     sync.Mutex
	chunks []*[memoGrowChunk]Instr
	gen    Gen
}

// extend materializes the prefix to at least want instructions (clamped
// to memoMaxInstrs) and returns a snapshot of the chunk list.
func (s *memoStream) extend(want int) []*[memoGrowChunk]Instr {
	want = min(want, memoMaxInstrs)
	s.mu.Lock()
	for len(s.chunks)*memoGrowChunk < want {
		c := new([memoGrowChunk]Instr)
		s.gen.NextBatch(c[:])
		s.chunks = append(s.chunks, c)
	}
	snap := s.chunks
	s.mu.Unlock()
	return snap
}

// forkGen returns an independent copy of the parked generator (Gen is
// pure value state, so a struct copy continues the stream). Callers
// only fork once the prefix is full, so the copy sits at exactly
// memoMaxInstrs — the position the caller has consumed up to.
func (s *memoStream) forkGen() *Gen {
	s.mu.Lock()
	g := s.gen
	s.mu.Unlock()
	return &g
}

var (
	memoMu      sync.Mutex
	memoStreams = map[memoKey]*memoStream{}
)

// getStream returns the resident stream for key, creating it if
// absent. When the table is full an arbitrary resident stream is
// recycled; readers already attached keep working unshared.
func getStream(key memoKey) *memoStream {
	memoMu.Lock()
	defer memoMu.Unlock()
	s := memoStreams[key]
	if s == nil {
		if len(memoStreams) >= memoMaxStreams {
			for evict := range memoStreams {
				delete(memoStreams, evict)
				break
			}
		}
		s = new(memoStream)
		key.p.initGen(&s.gen, key.seed)
		memoStreams[key] = s
	}
	return s
}

// MemoGen reads one memoized stream. It implements Source and
// BatchSource and produces exactly the stream its generator would; the
// memo only changes who runs the generator, never what it emits. A
// MemoGen is single-consumer like Gen (distinct MemoGens over the same
// stream may run concurrently).
type MemoGen struct {
	s      *memoStream
	chunks []*[memoGrowChunk]Instr // local snapshot of the chunk list
	pos    int
	tail   *Gen // private continuation past the memoized prefix
}

// NewMemoGen builds a reader for the profile's seed stream, sharing the
// materialized prefix with every other reader of the same (profile,
// seed).
func (p Profile) NewMemoGen(seed int64) *MemoGen {
	return &MemoGen{s: getStream(memoKey{p, seed})}
}

// NextBatch implements BatchSource: identical to len(dst) Next calls.
func (m *MemoGen) NextBatch(dst []Instr) int {
	n := len(dst)
	for len(dst) > 0 && m.pos < memoMaxInstrs {
		c := m.pos / memoGrowChunk
		if c == len(m.chunks) {
			m.chunks = m.s.extend(m.pos + len(dst))
		}
		k := copy(dst, m.chunks[c][m.pos%memoGrowChunk:])
		dst = dst[k:]
		m.pos += k
	}
	if len(dst) > 0 {
		if m.tail == nil {
			m.tail = m.s.forkGen()
		}
		m.tail.NextBatch(dst)
	}
	return n
}

// Next implements Source.
func (m *MemoGen) Next() Instr {
	var buf [1]Instr
	m.NextBatch(buf[:])
	return buf[0]
}

var (
	_ Source      = (*MemoGen)(nil)
	_ BatchSource = (*MemoGen)(nil)
)
