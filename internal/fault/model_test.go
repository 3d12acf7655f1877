package fault

import (
	"context"
	"testing"

	"cppc/internal/cache"
	"cppc/internal/core"
	"cppc/internal/protect"
)

// modelTrials is RunModelTrialsCtx over the campaign layout without
// cancellation, failing t on error.
func modelTrials(t *testing.T, mk protect.Factory, m Model, faults, trials int, seed int64) Counts {
	t.Helper()
	got, err := RunModelTrialsCtx(context.Background(), CampaignCacheConfig(), mk, m, faults, trials, seed)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestModelParseRoundTrip pins the string forms the fieldmc grid and
// the job API use as canonical cell keys.
func TestModelParseRoundTrip(t *testing.T) {
	for _, f := range []Footprint{FootWord, FootRow, FootColumn, FootBank} {
		got, err := ParseFootprint(f.String())
		if err != nil || got != f {
			t.Errorf("ParseFootprint(%q) = %v, %v", f.String(), got, err)
		}
	}
	for _, l := range []Lifetime{Transient, Intermittent, StuckAt} {
		got, err := ParseLifetime(l.String())
		if err != nil || got != l {
			t.Errorf("ParseLifetime(%q) = %v, %v", l.String(), got, err)
		}
	}
	if _, err := ParseFootprint("nope"); err == nil {
		t.Error("ParseFootprint accepted junk")
	}
	if _, err := ParseLifetime("nope"); err == nil {
		t.Error("ParseLifetime accepted junk")
	}
	if s := (Model{Foot: FootWord, Life: StuckAt}).String(); s != "word/stuck" {
		t.Errorf("Model.String() = %q", s)
	}
}

// TestModelTrialsDeterministic is the seeded-rng gate for the model
// runner: the campaign rng is the repo's lagged-Fibonacci generator, so
// the same seed must reproduce counts exactly on any Go release, and a
// different seed must drive a genuinely different fault sequence.
func TestModelTrialsDeterministic(t *testing.T) {
	m := Model{Foot: FootWord, Life: Intermittent}
	a := modelTrials(t, parityFactory(), m, 2, 12, 7)
	b := modelTrials(t, parityFactory(), m, 2, 12, 7)
	if a != b {
		t.Errorf("same seed diverged: %v vs %v", a, b)
	}
	// Trial i runs on seed+i, so nearby base seeds share trials; disjoint
	// seed windows must drive different fault sequences. A 12-trial tally
	// takes few values, so one window may match by chance; all three
	// matching means the stream ignores its seed.
	moved := false
	for _, seed := range []int64{907, 1907, 2907} {
		moved = moved || modelTrials(t, parityFactory(), m, 2, 12, seed) != a
	}
	if !moved {
		t.Errorf("seeds 907, 1907 and 2907 all reproduced seed 7's counts %v — rng stream suspect", a)
	}
	if got := a.Total(); got != 12 {
		t.Errorf("counts total %d, want 12", got)
	}
}

// TestLifetimeChangesSchemeRanking is the acceptance row of the issue:
// under transient single-bit faults detection-only parity mostly rides
// on clean-line refetch, but a stuck-at bit re-asserts after every
// repair, so parity-1d's DUE share must rise sharply while CPPC — which
// corrects on every access — stays fully covered in both worlds.
func TestLifetimeChangesSchemeRanking(t *testing.T) {
	const trials, seed = 30, 42
	cppc := cppcFactory(core.DefaultL1Config())

	transient := Model{Foot: FootWord, Life: Transient}
	stuck := Model{Foot: FootWord, Life: StuckAt}

	pTrans := modelTrials(t, parityFactory(), transient, 1, trials, seed)
	pStuck := modelTrials(t, parityFactory(), stuck, 1, trials, seed)
	if pStuck.DUE <= pTrans.DUE {
		t.Errorf("parity-1d DUE did not rise under stuck-at: transient %v, stuck %v", pTrans, pStuck)
	}
	if pStuck.Corrected >= pTrans.Corrected {
		t.Errorf("parity-1d coverage did not drop under stuck-at: transient %v, stuck %v", pTrans, pStuck)
	}

	cTrans := modelTrials(t, cppc, transient, 1, trials, seed)
	cStuck := modelTrials(t, cppc, stuck, 1, trials, seed)
	if cTrans.Corrected != trials || cStuck.Corrected != trials {
		t.Errorf("cppc lost coverage: transient %v, stuck %v", cTrans, cStuck)
	}
}

// TestStuckAtDefeatsOneShotRepair pins the physics at the unit level: a
// stuck-at bit on a clean line is "repaired" by refetch, yet the very
// next consult re-asserts it — the plane wins over the array until the
// fault is disarmed.
func TestStuckAtDefeatsOneShotRepair(t *testing.T) {
	c := cache.New(CampaignCacheConfig())
	mem := cache.NewMemory(32, 100)
	ct := protect.NewController(c, protect.NewParity1D(c, 8), mem)
	camp := New(ct, mem, 3)
	camp.Populate(2000, 8192)

	// Find a valid clean word and pin one of its zero bits high.
	var set, way, word int
	var mask uint64
	found := false
	c.ForEachValid(func(s, w int, ln *cache.Line) {
		if found || ln.DirtyAny() {
			return
		}
		for b := 0; b < 64; b++ {
			if ln.Data[0]&(1<<b) == 0 {
				set, way, word, mask = s, w, 0, 1<<b
				found = true
				return
			}
		}
	})
	if !found {
		t.Skip("no clean resident line with a zero bit (pathological seed)")
	}
	c.ArmPlane(99)
	c.AddStuckFault(set, way, word, mask, mask)

	addr := c.BlockAddr(set, way) + uint64(word*8)
	for i := 0; i < 3; i++ {
		res := ct.Load(addr, uint64(1000+i))
		if ct.Halted {
			t.Fatalf("consult %d: DUE on a clean stuck-at word under refetch repair", i)
		}
		if res.Value&mask != 0 {
			t.Fatalf("consult %d: stuck bit leaked into the returned value", i)
		}
		if i > 0 && ct.Stats.FaultsDetected == 0 {
			t.Fatalf("consult %d: plane never re-asserted (no detections)", i)
		}
	}
	if ct.Stats.FaultsDetected < 2 {
		t.Fatalf("stuck bit detected %d times over 3 consults; one-shot repair should not silence it",
			ct.Stats.FaultsDetected)
	}
	c.DisarmPlane()
	before := ct.Stats.FaultsDetected
	res := ct.Load(addr, 2000)
	if ct.Halted || res.Value&mask != 0 || ct.Stats.FaultsDetected != before {
		t.Fatalf("disarmed plane still faulting: val=%#x halted=%v detects=%d->%d",
			res.Value, ct.Halted, before, ct.Stats.FaultsDetected)
	}
}
