// Package lfrng is a bit-compatible reimplementation of the stdlib
// math/rand additive lagged-Fibonacci generator (Mitchell & Reeds)
// together with the rand.Rand derivations the simulator draws through
// (Float64, Intn, Uint64). For an identical seed it produces the
// identical value stream — TestLFRandMatchesMathRand checks this
// exhaustively — but with concrete, inlinable methods instead of an
// interface dispatch per draw, and a stream that is frozen here rather
// than in the toolchain, so cached results stay byte-identical across
// Go versions.
//
// It began life inside internal/trace (which still aliases it); the
// fault campaigns share it so that cached cells stay byte-identical
// regardless of toolchain.
//
// The seeding table in table.go is generated from the toolchain's
// math/rand source; regenerate it only if the stdlib stream ever
// changes (it is frozen by the Go 1 compatibility promise).
package lfrng

const (
	lfLen    = 607
	lfTap    = 273
	lfMask   = 1<<63 - 1
	int32max = 1<<31 - 1
)

// Rand is the generator. The zero value is not seeded; call Seed (or
// use New) before drawing.
type Rand struct {
	tap, feed int
	vec       [lfLen]int64
}

// New returns a generator in the same state as
// rand.New(rand.NewSource(seed)).
func New(seed int64) *Rand {
	r := new(Rand)
	r.Seed(seed)
	return r
}

// lfSeedrand advances the seeding LCG: x[n+1] = 48271 * x[n] mod (2^31-1).
func lfSeedrand(x int32) int32 {
	const (
		a  = 48271
		q  = 44488
		rr = 3399
	)
	hi := x / q
	lo := x % q
	x = a*lo - rr*hi
	if x < 0 {
		x += int32max
	}
	return x
}

// Seed resets the generator to the state of rand.NewSource(seed).
func (r *Rand) Seed(seed int64) {
	r.tap = 0
	r.feed = lfLen - lfTap
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	x := int32(seed)
	for i := -20; i < lfLen; i++ {
		x = lfSeedrand(x)
		if i >= 0 {
			u := int64(x) << 40
			x = lfSeedrand(x)
			u ^= int64(x) << 20
			x = lfSeedrand(x)
			u ^= int64(x)
			u ^= lfCooked[i]
			r.vec[i] = u
		}
	}
}

// Uint64 returns the raw 64-bit generator output — the same stream as
// rand.New(rand.NewSource(seed)).Uint64(), whose rngSource implements
// Source64 and hands back the unmasked lagged-Fibonacci word.
func (r *Rand) Uint64() uint64 {
	r.tap--
	if r.tap < 0 {
		r.tap += lfLen
	}
	r.feed--
	if r.feed < 0 {
		r.feed += lfLen
	}
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return uint64(x)
}

func (r *Rand) Int63() int64 { return int64(r.Uint64() & lfMask) }

func (r *Rand) Int31() int32 { return int32(r.Int63() >> 32) }

// Float64 preserves the Go 1 value stream, including the round-to-1
// resample. The stdlib divides by 2^63; multiplying by the exactly
// representable 2^-63 only adjusts the exponent the same way, so every
// result is bit-identical and the divider stays off the hot path.
func (r *Rand) Float64() float64 {
again:
	f := float64(r.Int63()) * 0x1p-63
	if f == 1 {
		goto again
	}
	return f
}

func (r *Rand) Int31n(n int32) int32 {
	if n <= 0 {
		panic("invalid argument to Int31n")
	}
	if n&(n-1) == 0 {
		return r.Int31() & (n - 1)
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := r.Int31()
	for v > max {
		v = r.Int31()
	}
	return v % n
}

func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("invalid argument to Int63n")
	}
	if n&(n-1) == 0 {
		return r.Int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := r.Int63()
	for v > max {
		v = r.Int63()
	}
	return v % n
}

func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n <= 1<<31-1 {
		return int(r.Int31n(int32(n)))
	}
	return int(r.Int63n(int64(n)))
}

// Bound is a precomputed Intn bound for n in [1, 2^31). Int31n
// recomputes its rejection threshold — a hardware division — on every
// call; hoisting it out matters for per-instruction draws whose bounds
// are fixed for the life of a generator. The drawn value stream is
// identical to Intn(n).
type Bound struct {
	n    int32
	mask int32 // n-1 when n is a power of two, else -1
	max  int32 // rejection threshold when n is not a power of two
}

// MakeBound precomputes the rejection threshold for IntnBound.
func MakeBound(n int) Bound {
	if n <= 0 || n > 1<<31-1 {
		panic("invalid argument to MakeBound")
	}
	if n&(n-1) == 0 {
		return Bound{n: int32(n), mask: int32(n - 1)}
	}
	return Bound{n: int32(n), mask: -1, max: int32((1 << 31) - 1 - (1<<31)%uint32(n))}
}

// IntnBound draws Intn(b.n) through the precomputed bound.
func (r *Rand) IntnBound(b Bound) int {
	if b.mask >= 0 {
		return int(r.Int31() & b.mask)
	}
	v := r.Int31()
	for v > b.max {
		v = r.Int31()
	}
	return int(v % b.n)
}
