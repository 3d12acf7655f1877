package cpu

import (
	"context"

	"cppc/internal/cache"
	"cppc/internal/core"
	"cppc/internal/protect"
	"cppc/internal/trace"
)

// SchemeFactory is protect.Factory under the name the timing model's
// callers use.
type SchemeFactory = protect.Factory

// Standard factories for the four evaluated schemes, at both levels.
func Parity1DFactory() SchemeFactory {
	return func(c *cache.Cache) protect.Scheme { return protect.NewParity1D(c, 8) }
}
func SECDEDFactory(interleaved bool) SchemeFactory {
	return func(c *cache.Cache) protect.Scheme { return protect.NewSECDED(c, interleaved) }
}
func TwoDimFactory() SchemeFactory {
	return func(c *cache.Cache) protect.Scheme { return protect.NewTwoDim(c, 8) }
}
func CPPCFactory(cfg core.Config) SchemeFactory {
	return func(c *cache.Cache) protect.Scheme { return protect.MustCPPC(c, cfg) }
}

// Level describes one cache level of a stack: its geometry and the
// protection scheme attached to it.
type Level struct {
	Cfg    cache.Config
	Scheme SchemeFactory
}

// System is a single-core memory stack of any depth: Levels[0] faces the
// core, each level backs the one above it, and the last level sits on
// memory. The Table 1 two-level hierarchy is the common case (NewSystem);
// the Sec. 7 L3 study stacks three levels through the same machinery.
type System struct {
	Levels []*protect.Controller
	L1I    *protect.Controller // optional parity-protected instruction cache
	Mem    *cache.Memory
}

// NewStack builds a hierarchy of arbitrary depth over mem. levels[0] is
// the level closest to the core.
func NewStack(mem *cache.Memory, levels ...Level) *System {
	if len(levels) == 0 {
		panic("cpu: a stack needs at least one cache level")
	}
	sys := &System{Levels: make([]*protect.Controller, len(levels)), Mem: mem}
	var next cache.Backing = mem
	for i := len(levels) - 1; i >= 0; i-- {
		c := cache.New(levels[i].Cfg)
		ct := protect.NewController(c, levels[i].Scheme(c), next)
		sys.Levels[i] = ct
		next = ct
	}
	return sys
}

// NewSystem builds the Table 1 hierarchy with the given schemes: L1D (and
// an L1I) on a unified L2 on memory. Memory latency is ~200 cycles at
// 3 GHz. The L1I shares the unified L2; instructions are read-only, so
// plain parity fully protects them — it is wired into the front end only
// when a Core opts in via SetICache.
func NewSystem(mkL1, mkL2 SchemeFactory) *System {
	sys := NewStack(cache.NewMemory(32, 200),
		Level{Cfg: cache.L1DConfig(), Scheme: mkL1},
		Level{Cfg: cache.L2Config(), Scheme: mkL2},
	)
	lic := cache.New(cache.L1IConfig())
	sys.L1I = protect.NewController(lic, protect.NewParity1D(lic, 8), sys.Levels[1])
	return sys
}

// L1 returns the data-cache level closest to the core, L2 the level below
// it. They exist for the Table 1 two-level stack; deeper stacks index
// Levels directly.
func (sys *System) L1() *protect.Controller { return sys.Levels[0] }
func (sys *System) L2() *protect.Controller { return sys.Levels[1] }

// Port returns the system's MemoryPort: demand traffic enters at
// Levels[0], and halt state aggregates over the whole stack.
func (sys *System) Port() StackPort { return StackPort{Levels: sys.Levels} }

// Release returns every level's cache arrays to the construction pool so
// the next NewStack/NewSystem skips their allocation. The system —
// including its controllers and caches — must not be used afterwards.
func (sys *System) Release() {
	for _, l := range sys.Levels {
		l.C.Release()
	}
	if sys.L1I != nil {
		sys.L1I.C.Release()
	}
	if sys.Mem != nil {
		sys.Mem.Release()
	}
}

// ResetStats marks the measurement boundary on every level of the stack
// (see protect.Controller.ResetStats).
func (sys *System) ResetStats() {
	for _, l := range sys.Levels {
		l.ResetStats()
	}
}

// RunSourceWarmCtx runs `warmup` instructions of src to fill the caches
// (the SimPoint warm-up the paper's methodology implies), resets all
// statistics, then measures `measure` instructions. On cancellation the
// partial measurement is discarded and the context's error returned.
func RunSourceWarmCtx(ctx context.Context, src trace.Source, warmup, measure int, sys *System) (Result, error) {
	core := NewCoreWithPort(Table1Config(), sys.Port())
	defer core.Release()
	w, err := core.RunCtx(ctx, src, warmup)
	if err != nil {
		return Result{}, err
	}
	sys.ResetStats()
	m, err := core.RunCtx(ctx, src, measure)
	if err != nil {
		return Result{}, err
	}
	// core.RunCtx returns cumulative cycles; subtract the warm-up portion.
	m.Cycles -= w.Cycles
	m.CPI = float64(m.Cycles) / float64(m.Instructions)
	return m, nil
}
