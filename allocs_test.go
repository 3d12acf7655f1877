package cppc

import (
	"context"
	"testing"

	"cppc/internal/experiments"
)

// TestProtectedAccessPathAllocFree is the regression gate for the
// allocation-free hot path: a resident load and a resident store through
// the full controller stack must not allocate, under CPPC (verify, R1/R2
// fold, parity re-encode, dirty tracking) and under SECDED (Hamming
// decode on verify, re-encode on store). A single stray append,
// interface boxing or heap-escaping kernel accumulator on this path shows
// up here long before it shows up in a benchmark.
func TestProtectedAccessPathAllocFree(t *testing.T) {
	t.Run("cppc", func(t *testing.T) {
		ctrl, _ := newBenchController()
		checkResidentAccessAllocFree(t, ctrl)
	})
	t.Run("secded", func(t *testing.T) {
		c := NewCache(L1DConfig())
		checkResidentAccessAllocFree(t, NewController(c, NewSECDED(c, true), NewMemory(32, 200)))
	})
}

func checkResidentAccessAllocFree(t *testing.T, ctrl *Controller) {
	ctrl.Store(0x40, 1, 1) // make the block resident and dirty
	now := uint64(2)

	if avg := testing.AllocsPerRun(1000, func() {
		ctrl.Load(0x40, now)
		now++
	}); avg != 0 {
		t.Errorf("protected load hit allocates %.1f objects per op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		ctrl.Store(0x40, now, now)
		now++
	}); avg != 0 {
		t.Errorf("protected store hit allocates %.1f objects per op, want 0", avg)
	}
}

// TestFieldMCCellAllocBound gates the campaign arena work: a 4-trial
// field-mix cell runs on a pooled worker arena (campaign shell reseeded
// in place, shadow map cleared, cache arrays recycled through Release),
// so its steady-state cost is a few dozen allocations — the pre-arena
// code paid ~260. The bound has headroom over the measured ~90 so GC
// timing noise cannot flake it, while still catching any return to
// per-trial construction (which costs hundreds).
func TestFieldMCCellAllocBound(t *testing.T) {
	pt := experiments.FieldPoint{Footprint: "word", Lifetime: "stuck", Rate: "x1"}
	run := func() {
		if _, err := experiments.FieldMCCellCtx(context.Background(), "cppc", pt, 4, 1); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the arena and construction pools
	if avg := testing.AllocsPerRun(10, run); avg > 130 {
		t.Errorf("field-mix cell allocates %.0f objects per 4-trial run, want <= 130", avg)
	}
}
