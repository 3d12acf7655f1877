package experiments

import (
	"context"
	"fmt"
	"sync"

	"cppc/internal/cache"
	"cppc/internal/core"
	"cppc/internal/cpu"
	"cppc/internal/energy"
	"cppc/internal/protect"
	"cppc/internal/tables"
	"cppc/internal/trace"
)

// L3Run is one benchmark's timed Sec. 7 L3 cell. All fields are
// comparable, so same-seed determinism can be asserted with ==.
type L3Run struct {
	Bench string

	// CPI of the timed three-level stack under each protection placement:
	// all-parity baseline, CPPC at the L3 under test, CPPC at the L2.
	ParityCPI float64
	CPPCL3CPI float64
	CPPCL2CPI float64

	// L3 behaviour in the CPPC-at-L3 configuration (measure window only).
	L3Accesses uint64
	L3MissRate float64

	// Read-before-writes per store at the CPPC level, for the paper's
	// conjecture that the L3 pays fewer of them than the L2.
	RBWPerStoreL2 float64
	RBWPerStoreL3 float64

	// L3 dynamic energy, CPPC over parity, counted over the measure
	// window only (warmup folds excluded).
	EnergyRatio float64
}

// L3Cell runs one benchmark through the Sec. 7 three-level hierarchy
// (parity L1 over an L2 and the 8MB L3 under test, 300-cycle memory)
// three times — all-parity, CPPC at L3, CPPC at L2 — on the timed Table 1
// core, and reports CPI alongside the RBW and energy ratios the paper's
// conjecture is about.
func L3Cell(ctx context.Context, p trace.Profile, b Budget) (L3Run, error) {
	type out struct {
		res    cpu.Result
		l2, l3 cache.Stats
		folds  uint64
	}
	// where selects the CPPC level: 0 = none (all parity), 2 or 3.
	run := func(where int) (out, error) {
		l2f, l3f := cpu.Parity1DFactory(), cpu.Parity1DFactory()
		switch where {
		case 2:
			l2f = cpu.CPPCFactory(core.DefaultL2Config())
		case 3:
			l3f = cpu.CPPCFactory(core.DefaultL2Config())
		}
		sys := cpu.NewStack(cache.NewMemory(32, 300),
			cpu.Level{Cfg: cache.L1DConfig(), Scheme: cpu.Parity1DFactory()},
			cpu.Level{Cfg: cache.L2Config(), Scheme: l2f},
			cpu.Level{Cfg: cache.L3Config(), Scheme: l3f},
		)
		defer sys.Release()
		res, err := cpu.RunSourceWarmCtx(ctx, p.NewGen(b.Seed), b.Warmup, b.Measure, sys)
		if err != nil {
			return out{}, err
		}
		o := out{res: res, l2: sys.Levels[1].Stats, l3: sys.Levels[2].Stats}
		if where == 3 {
			// Measure-window folds only: RunSourceWarmCtx reset the engine
			// events at the warmup boundary along with the cache stats.
			o.folds = sys.Levels[2].Scheme.(*protect.CPPCScheme).Engine.Events.Folds
		}
		return o, nil
	}

	// The three placements are fully independent simulations (own stack,
	// own generator from the same seed), so with idle pool workers they
	// fan out; results are merged in the fixed (parity, L3, L2) order
	// either way, keeping the cell bit-identical to the serial path.
	outs := make([]out, 3)
	errs := make([]error, 3)
	wheres := [3]int{0, 3, 2}
	if workers := CellWorkers(ctx); workers >= 2 {
		var wg sync.WaitGroup
		for i, where := range wheres {
			wg.Add(1)
			go func() {
				defer wg.Done()
				outs[i], errs[i] = run(where)
			}()
		}
		wg.Wait()
	} else {
		for i, where := range wheres {
			outs[i], errs[i] = run(where)
			if errs[i] != nil {
				break
			}
		}
	}
	for _, err := range errs {
		if err != nil {
			return L3Run{}, err
		}
	}
	par, cp3, cp2 := outs[0], outs[1], outs[2]

	model := energy.New(cache.L3Config(), 8, 1)
	ePar := energy.Count(par.l3, model, 4, 0)
	eCpp := energy.Count(cp3.l3, model, 4, cp3.folds)

	r := L3Run{
		Bench:      p.Name,
		ParityCPI:  par.res.CPI,
		CPPCL3CPI:  cp3.res.CPI,
		CPPCL2CPI:  cp2.res.CPI,
		L3Accesses: cp3.l3.Accesses(),
		L3MissRate: cp3.l3.MissRate(),
	}
	// Tiny budgets can leave the L3 with no counted activity; keep the
	// field comparable (a NaN would break the == determinism checks).
	if ePar.Total() > 0 {
		r.EnergyRatio = eCpp.Ratio(ePar)
	}
	if cp2.l2.Stores > 0 {
		r.RBWPerStoreL2 = float64(cp2.l2.ReadBeforeWrite) / float64(cp2.l2.Stores)
	}
	if cp3.l3.Stores > 0 {
		r.RBWPerStoreL3 = float64(cp3.l3.ReadBeforeWrite) / float64(cp3.l3.Stores)
	}
	return r, nil
}

// L3Benches returns the canonical benchmark list of the Sec. 7 L3 study:
// the large-footprint workloads the paper's conjecture is about. The
// shard planner expands the study through here.
func L3Benches() []string { return []string{"mcf", "swim", "applu", "bzip2"} }

// L3Table renders the Sec. 7 L3 study from per-cell results, which must
// be in L3Benches order. The study runs the paper's first named
// future-work item (Sec. 7): an L3 CPPC under large-footprint workloads.
// The prediction — "we believe the number of read-before-write
// operations is smaller in L3 caches", hence even lower energy overhead
// than the L2's ~7% — is tested by building a three-level hierarchy
// (parity L1 and L2 over the L3 under test) on the timed Table 1 core
// and comparing both CPI and the L3's dynamic energy under CPPC and
// parity.
func L3Table(runs []L3Run) string {
	t := tables.New("Sec. 7: L3 CPPC under large-footprint workloads (timed)",
		"benchmark", "parity CPI", "cppc@L3 CPI", "cppc@L2 CPI",
		"L3 accesses", "L3 miss", "RBW/store L2", "RBW/store L3", "cppc/parity L3 energy")
	for _, r := range runs {
		t.Addf(r.Bench, r.ParityCPI, r.CPPCL3CPI, r.CPPCL2CPI,
			r.L3Accesses, tables.Pct(r.L3MissRate),
			fmt.Sprintf("%.3f", r.RBWPerStoreL2), fmt.Sprintf("%.3f", r.RBWPerStoreL3),
			fmt.Sprintf("%.3f", r.EnergyRatio))
	}
	return t.String() +
		"a nuanced verdict on the paper's conjecture: when the write working set's reuse\n" +
		"distance exceeds the L3 (bzip2 here), write-backs land on clean or absent blocks\n" +
		"and the overhead vanishes as predicted; cyclic write footprints that *fit* in a\n" +
		"large L3 keep rewriting still-dirty blocks and pay more read-before-writes than\n" +
		"at the L2 — the L3 advantage is a property of the workload's write reuse, not of\n" +
		"the level itself. The CPI columns show the timing side: an L3 hit is already 30\n" +
		"cycles, so CPPC's stolen read-before-write slots are invisible at either level\n"
}
