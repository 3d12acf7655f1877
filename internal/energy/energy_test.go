package energy

import (
	"math"
	"testing"

	"cppc/internal/cache"
	"cppc/internal/coherence"
)

func l1Model(check int, blf float64) *Model { return New(cache.L1DConfig(), check, blf) }
func l2Model(check int, blf float64) *Model { return New(cache.L2Config(), check, blf) }

func TestEnergyPositiveAndOrdered(t *testing.T) {
	m := l1Model(8, 1)
	if m.Read(1) <= 0 || m.Write(1) <= 0 {
		t.Fatal("non-positive energy")
	}
	if m.Write(1) <= m.Read(1) {
		t.Error("writes should cost more than reads")
	}
	if m.Read(4) <= m.Read(1) {
		t.Error("line reads should cost more than word reads")
	}
}

func TestSECDEDInterleavingFactor(t *testing.T) {
	// Physically interleaved SECDED multiplies bitline energy by 8
	// (Sec. 6.2); the paper reports ~42% total overhead at L1.
	parity := l1Model(8, 1)
	secded := l1Model(8, 8)
	over := secded.Read(1)/parity.Read(1) - 1
	if over < 0.25 || over > 0.60 {
		t.Errorf("interleaved SECDED L1 read overhead = %.2f, want ~0.42", over)
	}
}

func TestBitlineShareGrowsWithSize(t *testing.T) {
	// The reason SECDED's relative cost is higher at L2 (+68%) than at L1
	// (+42%): bitlines are a bigger share of a bigger cache's access.
	l1p, l1s := l1Model(8, 1), l1Model(8, 8)
	l2p, l2s := l2Model(8, 1), l2Model(10, 8)
	l1over := l1s.Read(1)/l1p.Read(1) - 1
	l2over := l2s.Read(4)/l2p.Read(4) - 1
	if l2over <= l1over {
		t.Errorf("L2 SECDED overhead %.2f not above L1 %.2f", l2over, l1over)
	}
	if l2over < 0.4 || l2over > 1.0 {
		t.Errorf("L2 SECDED overhead = %.2f, want ~0.68", l2over)
	}
}

func TestCheckBitsCostEnergy(t *testing.T) {
	bare := l1Model(0, 1)
	parity := l1Model(8, 1)
	if parity.Read(1) <= bare.Read(1) {
		t.Error("check bits should add bitline energy")
	}
	// But the overhead must be small (8 bits out of 72).
	if parity.Read(1)/bare.Read(1) > 1.02 {
		t.Error("parity overhead implausibly large")
	}
}

func TestFoldEnergyNegligible(t *testing.T) {
	// Sec. 4.8: the barrel shifter consumes ~1.5 pJ versus hundreds of pJ
	// per cache access — CPPC's register updates are noise.
	m := l1Model(8, 1)
	if FoldEnergy(1) > 0.05*m.Read(1) {
		t.Errorf("fold energy %.2f pJ not negligible vs access %.2f pJ",
			FoldEnergy(1), m.Read(1))
	}
	if FoldEnergy(4) <= FoldEnergy(1) {
		t.Error("block-wide folds should cost more than word folds")
	}
}

func TestBarrelShifterOffCriticalPath(t *testing.T) {
	// Sec. 4.8: shifter delay must be well under the cache access time.
	m := l1Model(8, 1)
	if BarrelShifterDelayNs() >= m.AccessTimeNs() {
		t.Errorf("shifter %.3fns not under access time %.3fns",
			BarrelShifterDelayNs(), m.AccessTimeNs())
	}
	l2 := l2Model(8, 1)
	if l2.AccessTimeNs() <= m.AccessTimeNs() {
		t.Error("L2 should be slower than L1")
	}
}

func TestCountReport(t *testing.T) {
	m := l1Model(8, 1)
	st := cache.Stats{LoadHits: 100, StoreHits: 50, ReadBeforeWrite: 20, RBWOnMissLines: 5}
	r := Count(st, m, 1, 10)
	if r.ReadPJ != 100*m.Read(1) {
		t.Errorf("ReadPJ = %v", r.ReadPJ)
	}
	if r.WritePJ != 50*m.Write(1) {
		t.Errorf("WritePJ = %v", r.WritePJ)
	}
	want := 15*m.Read(1) + 5*m.Read(4)
	if r.RBWPJ != want {
		t.Errorf("RBWPJ = %v, want %v", r.RBWPJ, want)
	}
	if r.FoldPJ != 10*FoldEnergy(1) {
		t.Errorf("FoldPJ = %v", r.FoldPJ)
	}
	if r.Total() != r.ReadPJ+r.WritePJ+r.RBWPJ+r.FoldPJ {
		t.Error("Total mismatch")
	}
}

func TestDefaultBitlineFactor(t *testing.T) {
	m := New(cache.L1DConfig(), 8, 0) // 0 coerced to 1
	if m.BitlineFactor != 1 {
		t.Errorf("BitlineFactor = %v", m.BitlineFactor)
	}
}

func TestRatioNaNOnEmptyBase(t *testing.T) {
	full := Report{ReadPJ: 10}
	if r := full.Ratio(Report{}); !math.IsNaN(r) {
		t.Errorf("ratio over empty base = %v, want NaN", r)
	}
	if r := (Report{}).Ratio(Report{}); !math.IsNaN(r) {
		t.Errorf("empty/empty ratio = %v, want NaN", r)
	}
	if r := full.Ratio(Report{ReadPJ: 5}); r != 2 {
		t.Errorf("ratio = %v, want 2", r)
	}
}

// TestCountElidedPricesSkippedWriteAndFolds pins the elision pricing:
// folds counts every fold the engine performed, and each elided store
// saves exactly one array write and two folds while keeping its
// read-before-write.
func TestCountElidedPricesSkippedWriteAndFolds(t *testing.T) {
	for _, m := range []*Model{l1Model(8, 1), New(cache.L2Config(), 8, 1)} {
		w := m.Cfg.DirtyGranuleWords
		st := cache.Stats{LoadHits: 100, StoreHits: 50, ReadBeforeWrite: 20, RBWOnMissLines: 5}
		const folds, elided = 90, 30
		plain := Count(st, m, w, folds)
		got := CountElided(st, m, w, folds, elided)
		// Each elided store pays no write and two folds fewer, exactly.
		if want := float64(st.StoreHits-elided) * m.Write(w); got.WritePJ != want {
			t.Errorf("WritePJ = %v, want %v", got.WritePJ, want)
		}
		if want := float64(folds-2*elided) * FoldEnergy(w); got.FoldPJ != want {
			t.Errorf("FoldPJ = %v, want %v", got.FoldPJ, want)
		}
		// So the savings are elided × Write(w) and 2 × elided × FoldEnergy,
		// up to rounding.
		near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Abs(b) }
		if !near(plain.WritePJ-got.WritePJ, elided*m.Write(w)) || !near(plain.FoldPJ-got.FoldPJ, 2*elided*FoldEnergy(w)) {
			t.Errorf("savings %v write, %v fold; want %v, %v",
				plain.WritePJ-got.WritePJ, plain.FoldPJ-got.FoldPJ, elided*m.Write(w), 2*elided*FoldEnergy(w))
		}
		if got.ReadPJ != plain.ReadPJ || got.RBWPJ != plain.RBWPJ {
			t.Errorf("elision changed read or RBW energy: %+v vs %+v", got, plain)
		}
		// Counter clamps: elided beyond store hits, or two folds per
		// elided store beyond the folds counted, zero the component
		// rather than going negative.
		if r := CountElided(st, m, w, 1000, 1000); r.WritePJ != 0 {
			t.Errorf("clamped WritePJ = %v, want 0", r.WritePJ)
		}
		if r := CountElided(st, m, w, 10, elided); r.FoldPJ != 0 {
			t.Errorf("clamped FoldPJ = %v, want 0", r.FoldPJ)
		}
	}
}

func TestCountCoherenceRoleMapping(t *testing.T) {
	bm := NewBus(4)
	st := coherence.Stats{
		BusReads: 10, BusReadX: 7, Invalidations: 5,
		OwnerFlushes: 3, OwnerWritebackInvalidations: 2,
	}
	r := CountCoherence(st, bm)
	if want := 10 * (bm.Transaction() + bm.Transfer()); r.ReadPJ != want {
		t.Errorf("ReadPJ = %v, want %v", r.ReadPJ, want)
	}
	if want := 7*bm.Transaction() + 5*bm.Invalidate(); r.WritePJ != want {
		t.Errorf("WritePJ = %v, want %v", r.WritePJ, want)
	}
	if want := 5 * (bm.Transaction() + bm.Transfer()); r.RBWPJ != want {
		t.Errorf("RBWPJ = %v, want %v", r.RBWPJ, want)
	}
	if r.FoldPJ != 0 {
		t.Errorf("FoldPJ = %v, want 0 (registers live in the cache models)", r.FoldPJ)
	}
	if z := CountCoherence(coherence.Stats{}, bm); z.Total() != 0 {
		t.Errorf("idle bus burned %v pJ", z.Total())
	}
	if NewBus(0).BlockWords != 1 {
		t.Error("NewBus did not clamp block words to 1")
	}
}

func TestReportAdd(t *testing.T) {
	a := Report{ReadPJ: 1, WritePJ: 2, RBWPJ: 3, FoldPJ: 4}
	a.Add(Report{ReadPJ: 10, WritePJ: 20, RBWPJ: 30, FoldPJ: 40})
	if a != (Report{ReadPJ: 11, WritePJ: 22, RBWPJ: 33, FoldPJ: 44}) {
		t.Errorf("Add = %+v", a)
	}
}
