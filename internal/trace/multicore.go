package trace

import "cppc/internal/lfrng"

// Per-core trace sources for the Sec. 7 multiprocessor runs. Every core
// draws from the same profile but its own deterministic stream; a
// configurable fraction of each core's memory accesses lands in a region
// shared by all cores, the rest in a private per-core copy of the
// footprint. Address offsets are multiples of 1MB, so set-index bits are
// preserved and a private stream behaves exactly like the unshifted
// profile (only tags differ) — which makes the 1-core private run a clean
// slowdown baseline.

// coreStride rounds span up to a 1MB multiple: big enough to keep
// per-core regions disjoint, aligned so L1/L2 set mapping is unchanged.
func coreStride(span int) uint64 {
	const mb = 1 << 20
	return (uint64(span) + mb - 1) &^ uint64(mb-1)
}

// relocKey identifies one core's fully relocated stream: the base
// (profile, seed) stream with the sharing coin applied. The stride is a
// pure function of the profile, so it is not part of the key.
type relocKey struct {
	p    Profile
	seed int64
	core int
	frac float64
}

// relocGen is the live generator behind a relocated stream: the
// memoized base reader plus the sharing coin. It runs only inside the
// memo (materializing the relocated prefix once per key) and when a
// reader forks past the prefix cap.
type relocGen struct {
	base       *MemoGen
	coin       lfrng.Rand
	sharedFrac float64
	offset     uint64 // base of this core's private region
}

// NextBatch draws the base stream in one memo copy, then applies the
// coin in stream order — the two RNGs never interleave state, so the
// result matches a per-instruction interleaving exactly. One flip per
// memory access keeps the base generator's draw sequence untouched, so
// the shared and private sub-streams stay profile-shaped.
func (g *relocGen) NextBatch(dst []Instr) int {
	g.base.NextBatch(dst)
	for i := range dst {
		in := &dst[i]
		if in.Op == OpLoad || in.Op == OpStore {
			if g.coin.Float64() >= g.sharedFrac {
				in.Addr += g.offset
			}
		}
	}
	return len(dst)
}

func (g *relocGen) clone() memoSource {
	c := *g
	c.base = g.base.cloneReader()
	return &c
}

// CoreGen is one core's stream: the base stream with the sharing coin
// applied, read through the process-wide memo. The *relocated* stream is
// memoized — keyed by (profile, seed, core, fraction) — so a cell that
// repeats a configuration (benchmark iterations, scheme comparisons on
// the same trace) serves every core's instructions as a straight prefix
// copy, with no per-instruction RNG work at all. It implements Source
// and BatchSource.
type CoreGen struct {
	MemoGen
}

// NewCoreGens builds one deterministic generator per core. sharedFrac is
// the probability a memory access targets the shared region (the
// profile's base footprint); everything else goes to the core's private
// copy. Same (profile, cores, sharedFrac, seed) ⇒ identical streams.
func (p Profile) NewCoreGens(cores int, sharedFrac float64, seed int64) []*CoreGen {
	backing := make([]CoreGen, cores)
	gens := make([]*CoreGen, cores)
	for i := range backing {
		gens[i] = p.initCoreGen(&backing[i], i, sharedFrac, seed)
	}
	return gens
}

// initCoreGen builds core i's generator in place.
func (p Profile) initCoreGen(g *CoreGen, i int, sharedFrac float64, seed int64) *CoreGen {
	stride := coreStride(p.WorkingSetBytes + p.StoreBytes)
	s := seed + int64(i)*0x9e3779b9 // distinct per-core seeds
	stream := getStream(relocKey{p, s, i, sharedFrac}, func() memoSource {
		r := &relocGen{
			base:       p.NewMemoGen(s),
			sharedFrac: sharedFrac,
			offset:     uint64(i+1) * stride,
		}
		r.coin.Seed(s ^ 0x5deece66d)
		return r
	})
	g.MemoGen = MemoGen{s: stream}
	return g
}

var (
	_ Source      = (*CoreGen)(nil)
	_ BatchSource = (*CoreGen)(nil)
)
