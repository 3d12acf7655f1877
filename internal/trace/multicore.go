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

// CoreGen is one core's stream: a plain generator of the (profile,
// per-core seed) base stream with the sharing coin applied on read. A
// Sec. 7 cell with spare workers draws it ahead of the core
// (cpu.Cluster.SetWorkers). It implements Source and BatchSource.
type CoreGen struct {
	Gen
	coin       lfrng.Rand
	sharedFrac float64
	offset     uint64 // base of this core's private region
}

// NewCoreGens builds one deterministic generator per core. sharedFrac is
// the probability a memory access targets the shared region (the
// profile's base footprint); everything else goes to the core's private
// copy. Same (profile, cores, sharedFrac, seed) ⇒ identical streams.
func (p Profile) NewCoreGens(cores int, sharedFrac float64, seed int64) []*CoreGen {
	stride := coreStride(p.WorkingSetBytes + p.StoreBytes)
	backing := make([]CoreGen, cores)
	gens := make([]*CoreGen, cores)
	for i := range backing {
		g := &backing[i]
		s := seed + int64(i)*0x9e3779b9 // distinct per-core seeds
		p.initGen(&g.Gen, s)
		g.coin.Seed(s ^ 0x5deece66d)
		g.sharedFrac = sharedFrac
		g.offset = uint64(i+1) * stride
		gens[i] = g
	}
	return gens
}

// NextBatch implements BatchSource. It draws the base stream, then
// applies the coin in stream order — the two RNGs never interleave
// state, so the result matches a per-instruction interleaving exactly.
// One flip per memory access keeps the base generator's draw sequence
// untouched, so the shared and private sub-streams stay profile-shaped.
func (g *CoreGen) NextBatch(dst []Instr) int {
	g.Gen.NextBatch(dst)
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

// Next implements Source (Gen's would skip the coin).
func (g *CoreGen) Next() Instr {
	var buf [1]Instr
	g.NextBatch(buf[:])
	return buf[0]
}

var (
	_ Source      = (*CoreGen)(nil)
	_ BatchSource = (*CoreGen)(nil)
)
