package cpu

import (
	"context"
	"testing"

	"cppc/internal/core"
	"cppc/internal/protect"
	"cppc/internal/trace"
)

func gzipProfile() trace.Profile {
	p, ok := trace.ProfileByName("gzip")
	if !ok {
		panic("gzip profile missing")
	}
	return p
}

// run executes n instructions of src on c, failing t on error.
func run(t *testing.T, c *Core, src trace.Source, n int) Result {
	t.Helper()
	res, err := c.RunCtx(context.Background(), src, n)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runBenchmark executes n instructions of prof on a fresh Table 1 core
// over sys. The system's controllers accumulate the cache statistics.
func runBenchmark(t *testing.T, prof trace.Profile, n int, seed int64, sys *System) Result {
	t.Helper()
	c := NewCoreWithPort(Table1Config(), sys.Port())
	defer c.Release()
	return run(t, c, prof.NewGen(seed), n)
}

func TestTable1Config(t *testing.T) {
	cfg := Table1Config()
	if cfg.IssueWidth != 4 || cfg.RUUSize != 64 || cfg.LSQSize != 16 {
		t.Errorf("core geometry: %+v", cfg)
	}
	if cfg.IntALU != 4 || cfg.IntMul != 1 || cfg.FPALU != 4 || cfg.FPMul != 1 {
		t.Errorf("FU pool: %+v", cfg)
	}
	if cfg.FreqHz != 3e9 {
		t.Errorf("frequency: %v", cfg.FreqHz)
	}
}

func TestFuPoolSerializesOnSingleUnit(t *testing.T) {
	p := fuPool{n: 1}
	a := p.acquire(0, 3)
	b := p.acquire(0, 3)
	if a != 0 || b != 3 {
		t.Errorf("single unit: a=%d b=%d", a, b)
	}
	p2 := fuPool{n: 2}
	a2 := p2.acquire(0, 3)
	b2 := p2.acquire(0, 3)
	if a2 != 0 || b2 != 0 {
		t.Errorf("two units should run in parallel: a=%d b=%d", a2, b2)
	}
}

func TestPortReserveAndSteal(t *testing.T) {
	p := port{cap: 2}
	if got := p.reserve(5, 1); got != 5 {
		t.Errorf("reserve = %d", got)
	}
	if got := p.reserve(5, 1); got != 6 {
		t.Errorf("second reserve = %d", got)
	}
	// Stolen cycles within the buffer capacity do not delay demand.
	p.steal(2)
	if got := p.reserve(7, 1); got != 7 {
		t.Errorf("reserve with small debt = %d", got)
	}
	// Overflowing debt stalls demand by the excess.
	p.steal(5) // debt 7, cap 2 -> 5 cycles of stall
	if got := p.reserve(8, 1); got != 13 {
		t.Errorf("reserve with overflowing debt = %d", got)
	}
	// A long idle gap drains the remaining debt for free.
	if got := p.reserve(100, 1); got != 100 {
		t.Errorf("reserve after idle gap = %d", got)
	}
}

func TestCPIGreaterThanIdeal(t *testing.T) {
	sys := NewSystem(Parity1DFactory(), Parity1DFactory())
	res := runBenchmark(t, gzipProfile(), 100000, 1, sys)
	if res.Instructions != 100000 {
		t.Fatalf("instructions = %d", res.Instructions)
	}
	// A 4-wide machine cannot beat 0.25 CPI, and a real workload with
	// memory stalls should be well above it but far below pathological.
	if res.CPI < 0.25 || res.CPI > 10 {
		t.Fatalf("CPI = %v out of plausible range", res.CPI)
	}
	if res.Halted {
		t.Fatal("halted without faults")
	}
}

func TestCPIDeterministic(t *testing.T) {
	a := runBenchmark(t, gzipProfile(), 50000, 1, NewSystem(Parity1DFactory(), Parity1DFactory()))
	b := runBenchmark(t, gzipProfile(), 50000, 1, NewSystem(Parity1DFactory(), Parity1DFactory()))
	if a.CPI != b.CPI || a.Cycles != b.Cycles {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

// TestFigure10Ordering is the shape of Fig. 10 in miniature: CPPC's CPI
// overhead over one-dimensional parity is small, and two-dimensional
// parity costs at least as much as CPPC.
func TestFigure10Ordering(t *testing.T) {
	const n = 300000
	base := runBenchmark(t, gzipProfile(), n, 1, NewSystem(Parity1DFactory(), Parity1DFactory()))
	cppc := runBenchmark(t, gzipProfile(), n, 1, NewSystem(CPPCFactory(core.DefaultL1Config()), Parity1DFactory()))
	twod := runBenchmark(t, gzipProfile(), n, 1, NewSystem(TwoDimFactory(), Parity1DFactory()))

	if cppc.CPI < base.CPI*0.999 {
		t.Errorf("CPPC CPI %.4f below parity baseline %.4f", cppc.CPI, base.CPI)
	}
	if twod.CPI < cppc.CPI*0.999 {
		t.Errorf("2D CPI %.4f below CPPC %.4f", twod.CPI, cppc.CPI)
	}
	// CPPC's overhead should stay small (paper: <=1% across benchmarks;
	// allow slack for the synthetic workload).
	if over := cppc.CPI/base.CPI - 1; over > 0.05 {
		t.Errorf("CPPC CPI overhead %.2f%% implausibly high", over*100)
	}
}

func TestL2SeesTraffic(t *testing.T) {
	sys := NewSystem(Parity1DFactory(), Parity1DFactory())
	runBenchmark(t, gzipProfile(), 100000, 1, sys)
	if sys.L2().Stats.Accesses() == 0 {
		t.Fatal("no L2 traffic")
	}
	if sys.L1().Stats.MissRate() <= 0 || sys.L1().Stats.MissRate() > 0.5 {
		t.Fatalf("implausible L1 miss rate %.3f", sys.L1().Stats.MissRate())
	}
}

func TestMcfMissesHard(t *testing.T) {
	mcf, _ := trace.ProfileByName("mcf")
	sys := NewSystem(Parity1DFactory(), Parity1DFactory())
	runBenchmark(t, mcf, 200000, 1, sys)
	easy := NewSystem(Parity1DFactory(), Parity1DFactory())
	eon, _ := trace.ProfileByName("eon")
	runBenchmark(t, eon, 200000, 1, easy)
	if sys.L1().Stats.MissRate() <= easy.L1().Stats.MissRate() {
		t.Errorf("mcf L1 miss rate %.3f not above eon %.3f",
			sys.L1().Stats.MissRate(), easy.L1().Stats.MissRate())
	}
	// mcf's L2 should miss most of the time (paper: ~80%).
	if mr := sys.L2().Stats.MissRate(); mr < 0.5 {
		t.Errorf("mcf L2 miss rate %.3f, want high (paper ~0.8)", mr)
	}
}

func TestBranchPenaltySlowsDown(t *testing.T) {
	p := gzipProfile()
	p.BranchMispredictRate = 0
	fast := runBenchmark(t, p, 100000, 1, NewSystem(Parity1DFactory(), Parity1DFactory()))
	p.BranchMispredictRate = 0.3
	slow := runBenchmark(t, p, 100000, 1, NewSystem(Parity1DFactory(), Parity1DFactory()))
	if slow.CPI <= fast.CPI {
		t.Errorf("mispredictions did not slow the core: %.3f vs %.3f", slow.CPI, fast.CPI)
	}
}

func TestOpLatencies(t *testing.T) {
	if opLatency(trace.OpInt) != 1 || opLatency(trace.OpIntMul) != 3 ||
		opLatency(trace.OpFP) != 2 || opLatency(trace.OpFPMul) != 4 {
		t.Error("unexpected FU latencies")
	}
	if opLatency(trace.OpLoad) != 1 {
		t.Error("default latency should be 1")
	}
}

func TestICacheModeling(t *testing.T) {
	p := gzipProfile()
	// Without the I-cache.
	sysA := NewSystem(Parity1DFactory(), Parity1DFactory())
	coreA := NewCoreWithPort(Table1Config(), sysA.Port())
	base := run(t, coreA, p.NewGen(1), 100000)

	// With a 16KB L1I over a 64KB code footprint: extra front-end stalls.
	sysB := NewSystem(Parity1DFactory(), Parity1DFactory())
	coreB := NewCoreWithPort(Table1Config(), sysB.Port())
	coreB.SetICache(sysB.L1I, 64<<10)
	with := run(t, coreB, p.NewGen(1), 100000)

	if sysB.L1I.Stats.Accesses() == 0 {
		t.Fatal("L1I never accessed")
	}
	if with.CPI <= base.CPI {
		t.Errorf("I-cache modeling did not add front-end stalls: %.3f vs %.3f",
			with.CPI, base.CPI)
	}
	if mr := sysB.L1I.Stats.MissRate(); mr <= 0 || mr > 0.2 {
		t.Errorf("implausible L1I miss rate %.3f", mr)
	}
}

// TestHaltTruncatesInstructionCount: a run cut short by a DUE must report
// the instructions actually executed — the halting instruction counts,
// nothing after it does. (The bug: Result.Instructions stayed at the
// requested n, overstating work and understating CPI in every
// fault-injection run that halts.)
func TestHaltTruncatesInstructionCount(t *testing.T) {
	sys := NewSystem(Parity1DFactory(), Parity1DFactory())
	defer sys.Release()
	core := NewCoreWithPort(Table1Config(), sys.Port())
	p := gzipProfile()
	run(t, core, p.NewGen(1), 50000) // dirty a working set

	// Corrupt every resident dirty word: under parity-1d a dirty fault is
	// uncorrectable, so the first load to any of them raises a DUE.
	c := sys.L1().C
	flipped := 0
	for set := 0; set < c.Cfg.Sets(); set++ {
		for way := 0; way < c.Cfg.Ways; way++ {
			ln := c.Line(set, way)
			if !ln.Valid {
				continue
			}
			for g, d := range ln.Dirty {
				if d {
					c.FlipBits(set, way, g, 1<<13)
					flipped++
				}
			}
		}
	}
	if flipped == 0 {
		t.Fatal("warmup left no dirty words to corrupt")
	}

	const n = 200000
	res := run(t, core, p.NewGen(2), n)
	if !res.Halted {
		t.Fatal("machine did not halt on an uncorrectable dirty fault")
	}
	if res.Instructions == 0 || res.Instructions >= n {
		t.Fatalf("halted run reports %d instructions, want 0 < i < %d", res.Instructions, n)
	}
	if want := float64(res.Cycles) / float64(res.Instructions); res.CPI != want {
		t.Errorf("CPI %v inconsistent with Cycles/Instructions = %v", res.CPI, want)
	}
}

// TestWarmupFoldInvariance: fold counts reported after a warmed run must
// cover the measure window only. Running warmup+measure in one shot and
// running the same post-warmup stream with the warmup discarded by the
// reset must report identical fold counts. (The bug: cache stats were
// reset at the warmup boundary but CPPC's engine events were not, so
// warmup folds inflated every energy ratio.)
func TestWarmupFoldInvariance(t *testing.T) {
	const warm, meas = 40000, 80000
	folds := func(sys *System) uint64 {
		var n uint64
		for _, l := range sys.Levels {
			if s, ok := l.Scheme.(*protect.CPPCScheme); ok {
				n += s.Engine.Events.Folds
			}
		}
		return n
	}
	mk := func() *System {
		return NewSystem(CPPCFactory(core.DefaultL1Config()), CPPCFactory(core.DefaultL2Config()))
	}
	runWarm := func(src trace.Source, warmup, measure int, sys *System) {
		if _, err := RunSourceWarmCtx(context.Background(), src, warmup, measure, sys); err != nil {
			t.Fatal(err)
		}
	}
	p := gzipProfile()

	sysA := mk()
	defer sysA.Release()
	runWarm(p.NewGen(1), warm, meas, sysA)
	foldsA := folds(sysA)

	// Same stream, warmup played as a throwaway measurement: the second
	// run resets at its (empty) warmup boundary and measures the
	// identical post-warmup instructions.
	sysB := mk()
	defer sysB.Release()
	gen := p.NewGen(1)
	runWarm(gen, 0, warm, sysB)
	runWarm(gen, 0, meas, sysB)
	foldsB := folds(sysB)

	if foldsA == 0 {
		t.Fatal("no folds measured")
	}
	if foldsA != foldsB {
		t.Fatalf("warmup skews fold counts: %d with warmup, %d without", foldsA, foldsB)
	}
}

func TestICacheFaultsAlwaysRecoverable(t *testing.T) {
	// Instructions are read-only: every L1I word is clean, so parity plus
	// refetch recovers any fault — the reason the paper's correction
	// machinery targets the data side.
	sys := NewSystem(Parity1DFactory(), Parity1DFactory())
	core := NewCoreWithPort(Table1Config(), sys.Port())
	core.SetICache(sys.L1I, 64<<10)
	run(t, core, gzipProfile().NewGen(2), 50000)

	// Strike a few resident instruction words directly.
	n := 0
	for set := 0; set < sys.L1I.C.Cfg.Sets() && n < 10; set++ {
		if sys.L1I.C.Line(set, 0).Valid {
			sys.L1I.C.FlipBits(set, 0, 0, 1<<7)
			n++
		}
	}
	run(t, core, gzipProfile().NewGen(3), 50000)
	if sys.L1I.Halted {
		t.Fatal("instruction cache fault was fatal")
	}
	if sys.L1I.Stats.UnrecoverableDUE != 0 {
		t.Fatalf("L1I DUEs: %+v", sys.L1I.Stats)
	}
}
