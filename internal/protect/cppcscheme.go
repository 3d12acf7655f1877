package protect

import (
	"fmt"

	"cppc/internal/cache"
	"cppc/internal/core"
)

// CPPCScheme adapts the core CPPC engine to the Scheme interface. Its
// distinguishing costs and capabilities:
//
//   - read-before-write only on stores to already-dirty granules
//     (Sec. 3.1), versus every store for two-dimensional parity;
//   - dirty-data correction through the register pairs, with spatial MBE
//     coverage when byte shifting or extra pairs are configured;
//   - clean faults repaired by re-fetch, like plain parity.
type CPPCScheme struct {
	C      *cache.Cache
	Engine *core.Engine
}

// NewCPPC attaches a CPPC engine with the given configuration.
func NewCPPC(c *cache.Cache, cfg core.Config) (*CPPCScheme, error) {
	e, err := core.New(c, cfg)
	if err != nil {
		return nil, err
	}
	return &CPPCScheme{C: c, Engine: e}, nil
}

// MustCPPC is NewCPPC that panics on configuration errors.
func MustCPPC(c *cache.Cache, cfg core.Config) *CPPCScheme {
	s, err := NewCPPC(c, cfg)
	if err != nil {
		panic(err)
	}
	return s
}

func (s *CPPCScheme) Name() string {
	suffix := ""
	if s.Engine.Cfg.SilentStoreElision {
		suffix = "-silent"
	}
	return fmt.Sprintf("cppc-p%d-r%d%s", s.Engine.Cfg.ParityDegree, s.Engine.Cfg.RegisterPairs, suffix)
}
func (s *CPPCScheme) CheckBitsPerGranule() int { return s.Engine.Cfg.ParityDegree }
func (s *CPPCScheme) BitlineFactor() float64   { return 1 }
func (s *CPPCScheme) FillNeedsOldLine() bool   { return false }

func (s *CPPCScheme) OnFill(set, way int) { s.Engine.OnFill(set, way) }

func (s *CPPCScheme) VerifyGranule(set, way, g int, _ uint64) (FaultStatus, bool) {
	if s.Engine.CheckSyndrome(set, way, g) == 0 {
		return FaultNone, false
	}
	if !s.C.Line(set, way).Dirty[g] {
		return FaultCorrectedClean, true
	}
	rep := s.Engine.RecoverDirty(set, way, g)
	if rep.Outcome == core.OutcomeCorrected {
		return FaultCorrectedDirty, false
	}
	return FaultDUE, false
}

// VerifyLineClean implements LineVerifier: a zero OR across every
// granule's syndrome proves the per-granule verify loop would be a
// complete no-op for a clean line.
func (s *CPPCScheme) VerifyLineClean(set, way int) bool {
	return s.Engine.LineSyndromeOr(set, way) == 0
}

// StoreNeedsOldData: only stores to already-dirty granules pay the
// read-before-write (the old value must be folded into R2).
func (s *CPPCScheme) StoreNeedsOldData(set, way, g int) bool {
	return s.C.Line(set, way).Dirty[g]
}

func (s *CPPCScheme) OnStore(set, way, g int, old []uint64, wasDirty, oldVerified bool, now uint64) {
	s.Engine.OnStore(set, way, g, old, wasDirty, oldVerified, now)
}

// ResetEvents implements EventResetter: it zeroes the engine's event
// counters (folds, recoveries, ...) without touching any protection
// state, so a measurement window can start counting from zero.
func (s *CPPCScheme) ResetEvents() { s.Engine.Events = core.Events{} }

// OnEvict verifies departing dirty granules (recovering latent faults so
// they are not written back corrupted, and so R2 absorbs correct data),
// then folds them into R2.
func (s *CPPCScheme) OnEvict(set, way int, _ uint64) {
	ln := s.C.Line(set, way)
	for g, d := range ln.Dirty {
		if d && s.Engine.CheckSyndrome(set, way, g) != 0 {
			s.Engine.RecoverDirty(set, way, g)
		}
	}
	s.Engine.OnEvictBlock(set, way)
}

// OnRefetchGranule re-encodes parity; the registers are untouched because
// clean data is never folded into them.
func (s *CPPCScheme) OnRefetchGranule(set, way, g int, _ []uint64) {
	s.Engine.EncodeCheck(set, way, g)
}

// OnDowngrade folds the departing dirty data out of the registers (it is
// clean now — the next level holds a copy) while the block stays
// resident. Latent faults are recovered first so R2 absorbs true values,
// exactly as on eviction.
func (s *CPPCScheme) OnDowngrade(set, way int, now uint64) {
	s.OnEvict(set, way, now)
}
