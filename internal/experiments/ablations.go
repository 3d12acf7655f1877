package experiments

import (
	"context"
	"fmt"

	"cppc/internal/cache"
	"cppc/internal/core"
	"cppc/internal/cpu"
	"cppc/internal/protect"
	"cppc/internal/reliability"
	"cppc/internal/tables"
	"cppc/internal/trace"
)

// SinglePortAblation evaluates the Sec. 7 future-work question — "we will
// also evaluate single-ported caches and their impact on the
// read-before-write operations" — by re-running the Fig. 10 CPI
// comparison with the L1 read and write ports merged.
func SinglePortAblation(ctx context.Context, b Budget) (string, error) {
	t := tables.New("Sec. 7 ablation: single-ported L1 vs. split ports (CPI overhead over parity-1d)",
		"benchmark", "cppc split", "cppc single", "2d split", "2d single")
	run := func(p trace.Profile, mk cpu.SchemeFactory, single bool) (float64, error) {
		sys := cpu.NewSystem(mk, cpu.Parity1DFactory())
		defer sys.Release()
		cfg := cpu.Table1Config()
		cfg.SinglePorted = single
		return warmCPI(ctx, cpu.NewCoreWithPort(cfg, sys.Port()), p.NewGen(b.Seed), b)
	}
	for _, name := range []string{"crafty", "vortex", "swim"} {
		p, ok := trace.ProfileByName(name)
		if !ok {
			return "", fmt.Errorf("single-port ablation: profile %q not found", name)
		}
		// over is cppc split, cppc single, 2d split, 2d single: each
		// scheme's CPI over the parity-1d baseline of its own port mode.
		var over [4]float64
		for j, single := range []bool{false, true} {
			base, err := run(p, cpu.Parity1DFactory(), single)
			if err != nil {
				return "", err
			}
			for i, mk := range []cpu.SchemeFactory{cpu.CPPCFactory(core.DefaultL1Config()), cpu.TwoDimFactory()} {
				cpi, err := run(p, mk, single)
				if err != nil {
					return "", err
				}
				over[2*i+j] = cpi/base - 1
			}
		}
		t.Addf(name,
			tables.Pct(over[0]), tables.Pct(over[1]),
			tables.Pct(over[2]), tables.Pct(over[3]))
	}
	return t.String() +
		"merging the ports raises every scheme's absolute CPI; the baseline becomes\n" +
		"port-bound, so 2D parity's relative overhead shrinks while CPPC's stolen\n" +
		"reads remain negligible in both designs\n", nil
}

// EarlyWritebackAblation quantifies the related-work technique of [2, 15]
// (Sec. 2): periodically cleaning dirty blocks trades write-back energy
// for a smaller vulnerable population — which directly scales the
// baseline parity MTTF and shortens CPPC's exposure windows.
func EarlyWritebackAblation(ctx context.Context, accesses int, seed int64) (string, error) {
	t := tables.New("Ablation: early write-back interval vs. dirty population",
		"interval", "dirty L1", "write-backs", "early WBs", "parity-1d MTTF (yr)")
	p, ok := trace.ProfileByName("gzip")
	if !ok {
		return "", fmt.Errorf("early-writeback ablation: profile %q not found", "gzip")
	}
	for _, interval := range []uint64{0, 512, 128, 32} {
		if err := ctx.Err(); err != nil {
			return "", err
		}
		ccfg := cache.L1DConfig()
		c := cache.New(ccfg)
		mem := cache.NewMemory(32, 200)
		ct := protect.NewController(c, protect.MustCPPC(c, core.DefaultL1Config()), mem)
		ct.SetSampleInterval(64)
		ct.SetEarlyWriteback(interval, 8)

		gen := p.NewGen(seed)
		var now uint64
		for i := 0; i < accesses; {
			in := gen.Next()
			switch in.Op {
			case trace.OpLoad:
				now++
				i++
				ct.Load(in.Addr, now)
			case trace.OpStore:
				now++
				i++
				ct.Store(in.Addr, in.Addr, now)
			}
		}
		params := reliability.Params{
			FITPerBit: 0.001, AVF: 0.7, FreqHz: 3e9,
			TotalBits: ccfg.TotalBits(), DirtyFraction: c.DirtyFraction(),
			TavgCycles: 1828,
		}
		label := "off"
		if interval > 0 {
			label = fmt.Sprintf("%d", interval)
		}
		t.Addf(label, tables.Pct(c.DirtyFraction()), ct.Stats.WriteBack,
			ct.EarlyWriteBacks, fmt.Sprintf("%.0f", reliability.Parity1DMTTFYears(params)))
	}
	return t.String(), nil
}

// SilentStoreAblation renders the Fig. 11/12-style energy comparison for
// the cppc-silent scheme: both CPPC variants' L1 and L2 dynamic energy
// normalized to parity-1d, next to the fraction of stores elided. The
// cppc-silent engines count silent stores and perform them, so one run
// prices both variants: plain CPPC is the same run with no store elided.
// The elision is timing-neutral by construction (the compare rides the
// read-before-write the incremental check-bit path already performs), so
// the CPI ratio column reads 1.000 — the whole benefit is the skipped
// array writes and register folds.
func SilentStoreAblation(ctx context.Context, b Budget) (string, error) {
	t := tables.New("Fig. 11/12 ablation: silent-store elision (dynamic energy normalized to parity-1d)",
		"benchmark", "L1 cppc", "L1 cppc-silent", "L2 cppc", "L2 cppc-silent", "elided/store", "CPI silent/cppc")
	levelEnergy := func(r Run, level int) float64 {
		l1, l2 := r.Energy()
		if level == 1 {
			return l1.Total()
		}
		return l2.Total()
	}
	for _, name := range []string{"gzip", "gcc", "mcf", "vpr"} {
		p, ok := trace.ProfileByName(name)
		if !ok {
			return "", fmt.Errorf("silent-store ablation: profile %q not found", name)
		}
		base, err := SimulateCtx(ctx, p, Parity1D, b)
		if err != nil {
			return "", fmt.Errorf("silent-store ablation %s/%s: %w", name, Parity1D, err)
		}
		silent, err := SimulateCtx(ctx, p, CPPCSilent, b)
		if err != nil {
			return "", fmt.Errorf("silent-store ablation %s/%s: %w", name, CPPCSilent, err)
		}
		plain := silent
		plain.Scheme, plain.Elided.L1, plain.Elided.L2 = CPPC, 0, 0
		baseL1, baseL2 := levelEnergy(base, 1), levelEnergy(base, 2)
		norm := func(e, base float64) float64 {
			if base == 0 {
				return 0
			}
			return e / base
		}
		elidedFrac := 0.0
		if st := silent.L1.Stores; st > 0 {
			elidedFrac = float64(silent.Elided.L1) / float64(st)
		}
		cpiRatio := 0.0
		if plain.CPI > 0 {
			cpiRatio = silent.CPI / plain.CPI
		}
		t.Addf(name,
			norm(levelEnergy(plain, 1), baseL1),
			norm(levelEnergy(silent, 1), baseL1),
			norm(levelEnergy(plain, 2), baseL2),
			norm(levelEnergy(silent, 2), baseL2),
			tables.Pct(elidedFrac), cpiRatio)
	}
	return t.String() +
		"elision skips the data-array write and both register folds when the stored\n" +
		"value equals the resident one; detection outcomes are bit-identical because\n" +
		"equal R1/R2 contributions cancel in R1^R2\n", nil
}

// ICacheAblation quantifies the front-end model: Fig. 10's CPIs with the
// Table 1 L1I attached (instruction fetch through a 16KB direct-mapped
// parity-protected cache sharing the unified L2). Instructions are
// read-only, so parity alone fully protects them — the reason the paper's
// machinery targets the data side.
func ICacheAblation(ctx context.Context, b Budget) (string, error) {
	t := tables.New("Ablation: instruction-cache modeling (parity-1d data cache)",
		"benchmark", "CPI no L1I", "CPI with L1I", "L1I miss rate")
	for _, name := range []string{"gzip", "gcc", "swim"} {
		p, ok := trace.ProfileByName(name)
		if !ok {
			return "", fmt.Errorf("icache ablation: profile %q not found", name)
		}
		run := func(withIC bool) (float64, float64, error) {
			sys := cpu.NewSystem(cpu.Parity1DFactory(), cpu.Parity1DFactory())
			defer sys.Release()
			c := cpu.NewCoreWithPort(cpu.Table1Config(), sys.Port())
			if withIC {
				c.SetICache(sys.L1I, 64<<10)
			}
			cpi, err := warmCPI(ctx, c, p.NewGen(b.Seed), b)
			return cpi, sys.L1I.Stats.MissRate(), err
		}
		base, _, err := run(false)
		if err != nil {
			return "", err
		}
		with, mr, err := run(true)
		if err != nil {
			return "", err
		}
		t.Addf(name, base, with, tables.Pct(mr))
	}
	return t.String(), nil
}

// warmCPI runs b.Warmup then b.Measure instructions of src on c and
// returns the measured window's CPI. Unlike cpu.RunSourceWarmCtx it
// keeps the caller's core, whose configuration the ablations vary.
func warmCPI(ctx context.Context, c *cpu.Core, src trace.Source, b Budget) (float64, error) {
	w, err := c.RunCtx(ctx, src, b.Warmup)
	if err != nil {
		return 0, err
	}
	m, err := c.RunCtx(ctx, src, b.Measure)
	if err != nil {
		return 0, err
	}
	return float64(m.Cycles-w.Cycles) / float64(m.Instructions), nil
}
