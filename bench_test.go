package cppc

// The pipeline-level benchmarks: one per table and figure of the paper's
// evaluation, one per sweep cell the daemon runs, and the protected
// access hot paths (run `go test -run '^$' -bench . -benchmem`). The
// full-budget versions of the experiments are produced by cmd/repro;
// these exercise the identical code on a reduced instruction budget so
// each entry finishes in seconds. Kernel and storage benchmarks live
// next to their code, paired with its *Ref oracle where one exists
// (internal/bitops, internal/core, internal/parity, internal/cache,
// internal/cellstore). CI runs every package's benchmarks on a change
// and on its parent, alternated on one runner, and cmd/bench compares
// the two.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"cppc/internal/experiments"
	"cppc/internal/fault"
	"cppc/internal/protect"
	"cppc/internal/reliability"
	"cppc/internal/service"
	"cppc/internal/trace"

	icache "cppc/internal/cache"
	icore "cppc/internal/core"
)

// benchBudget keeps each figure-bench iteration around a hundred
// milliseconds.
func benchBudget() experiments.Budget {
	return experiments.Budget{Warmup: 20_000, Measure: 60_000, Seed: 1}
}

// benchProfiles is a representative trio: cache-friendly, store-heavy,
// miss-heavy.
func benchProfiles() []trace.Profile {
	var out []trace.Profile
	for _, name := range []string{"crafty", "vortex", "mcf"} {
		p, ok := trace.ProfileByName(name)
		if !ok {
			panic("missing profile " + name)
		}
		out = append(out, p)
	}
	return out
}

// profile looks up one workload profile, failing b if it is missing.
func profile(b *testing.B, name string) trace.Profile {
	p, ok := trace.ProfileByName(name)
	if !ok {
		b.Fatalf("missing profile %s", name)
	}
	return p
}

// simulate runs one cell of the figure matrix, failing b on error.
func simulate(b *testing.B, p trace.Profile, id experiments.SchemeID, bud experiments.Budget) experiments.Run {
	r, err := experiments.SimulateCtx(context.Background(), p, id, bud)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkTable1Config renders the configuration table.
func BenchmarkTable1Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Table1() == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFigure10CPI regenerates the Fig. 10 CPI comparison: each
// benchmark under parity, CPPC and 2D parity.
func BenchmarkFigure10CPI(b *testing.B) {
	bud := benchBudget()
	for i := 0; i < b.N; i++ {
		for _, p := range benchProfiles() {
			base := simulate(b, p, experiments.Parity1D, bud)
			cp := simulate(b, p, experiments.CPPC, bud)
			td := simulate(b, p, experiments.TwoDim, bud)
			if cp.CPI < base.CPI*0.99 || td.CPI < base.CPI*0.99 {
				b.Fatalf("%s: CPI ordering broken: %.3f %.3f %.3f",
					p.Name, base.CPI, cp.CPI, td.CPI)
			}
		}
	}
}

// BenchmarkFigure11EnergyL1 regenerates the Fig. 11 normalized L1 energy.
func BenchmarkFigure11EnergyL1(b *testing.B) {
	benchEnergy(b, 1)
}

// BenchmarkFigure12EnergyL2 regenerates the Fig. 12 normalized L2 energy.
func BenchmarkFigure12EnergyL2(b *testing.B) {
	benchEnergy(b, 2)
}

func benchEnergy(b *testing.B, level int) {
	bud := benchBudget()
	for i := 0; i < b.N; i++ {
		s := &experiments.Suite{Budget: bud, Runs: map[string]map[experiments.SchemeID]experiments.Run{}}
		for _, p := range benchProfiles() {
			s.Order = append(s.Order, p.Name)
			s.Runs[p.Name] = map[experiments.SchemeID]experiments.Run{}
			for _, id := range []experiments.SchemeID{
				experiments.Parity1D, experiments.CPPC, experiments.SECDED, experiments.TwoDim,
			} {
				s.Runs[p.Name][id] = simulate(b, p, id, bud)
			}
		}
		var out string
		if level == 1 {
			out = s.Figure11()
		} else {
			out = s.Figure12()
		}
		if out == "" {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkTable2DirtyStats measures the dirty-fraction and Tavg
// collection of Table 2.
func BenchmarkTable2DirtyStats(b *testing.B) {
	bud := benchBudget()
	for i := 0; i < b.N; i++ {
		for _, p := range benchProfiles() {
			run := simulate(b, p, experiments.Parity1D, bud)
			if run.L1Gran.Dirty <= 0 {
				b.Fatalf("%s: no dirty data measured", p.Name)
			}
		}
	}
}

// BenchmarkTable3MTTF evaluates the analytical reliability models with
// the paper's Table 2 inputs.
func BenchmarkTable3MTTF(b *testing.B) {
	l1, l2 := reliability.PaperL1Params(), reliability.PaperL2Params()
	for i := 0; i < b.N; i++ {
		_ = reliability.Parity1DMTTFYears(l1)
		_ = reliability.Parity1DMTTFYears(l2)
		_ = reliability.DoubleFaultMTTFYears(l1, reliability.CPPCDomains(8, 1))
		_ = reliability.DoubleFaultMTTFYears(l2, reliability.CPPCDomains(8, 1))
		_ = reliability.DoubleFaultMTTFYears(l1, reliability.SECDEDDomains(l1, 64))
		_ = reliability.DoubleFaultMTTFYears(l2, reliability.SECDEDDomains(l2, 256))
	}
}

// BenchmarkSection47Aliasing evaluates the aliasing-MTTF sweep.
func BenchmarkSection47Aliasing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Section47() == "" {
			b.Fatal("empty section")
		}
	}
}

// BenchmarkSection48Shifter evaluates the barrel-shifter critical-path
// numbers.
func BenchmarkSection48Shifter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Section48() == "" {
			b.Fatal("empty section")
		}
	}
}

// BenchmarkSpatialCoverage runs the Secs. 4.6/4.11 Monte-Carlo coverage
// campaign for the evaluated CPPC (one 4x4 shape per iteration).
func BenchmarkSpatialCoverage(b *testing.B) {
	mk := func(c *icache.Cache) protect.Scheme {
		return protect.MustCPPC(c, icore.Config{ParityDegree: 8, RegisterPairs: 2, ByteShifting: true})
	}
	for i := 0; i < b.N; i++ {
		got, err := fault.RunSpatialTrialsCfgCtx(context.Background(), fault.CampaignCacheConfig(), mk, 4, 4, 2, int64(i))
		if err != nil || got.Corrected != got.Total() {
			b.Fatalf("4x4 coverage broken: %v (err=%v)", got, err)
		}
	}
}

// --- hot-path micro-benchmarks ---

func newBenchController() (*Controller, *Engine) {
	c := NewCache(L1DConfig())
	s, err := NewCPPC(c, DefaultL1Engine())
	if err != nil {
		panic(err)
	}
	eng, _ := EngineOf(s)
	return NewController(c, s, NewMemory(32, 200)), eng
}

// BenchmarkStoreHitCPPC measures the common-case store path (R1 fold +
// parity encode), the operation CPPC adds work to.
func BenchmarkStoreHitCPPC(b *testing.B) {
	ctrl, _ := newBenchController()
	ctrl.Store(0x40, 1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctrl.Store(0x40, uint64(i), uint64(i+2))
	}
}

// BenchmarkLoadHitCPPC measures the load verify path (parity check).
func BenchmarkLoadHitCPPC(b *testing.B) {
	ctrl, _ := newBenchController()
	ctrl.Store(0x40, 1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctrl.Load(0x40, uint64(i+2))
	}
}

// BenchmarkRecoverySingle measures the full recovery sweep for one faulty
// word over a realistically filled cache.
func BenchmarkRecoverySingle(b *testing.B) {
	ctrl, eng := newBenchController()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 4096; i++ {
		ctrl.Store(uint64(rng.Intn(8192))*8, rng.Uint64(), uint64(i+1))
	}
	set, way := ctrl.C.Probe(0x40)
	if way < 0 {
		ctrl.Store(0x40, 1, 99999)
		set, way = ctrl.C.Probe(0x40)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctrl.C.FlipBits(set, way, 0, 1<<9)
		if rep := eng.RecoverDirty(set, way, 0); rep.Outcome != OutcomeCorrected {
			b.Fatalf("recovery failed: %+v", rep)
		}
	}
}

// BenchmarkSection7Multicore runs a short timed coherence sweep (the
// Sec. 7 multiprocessor experiment) as one sweep job. A fresh seed per
// iteration keeps the service's caches cold.
func BenchmarkSection7Multicore(b *testing.B) {
	s := service.New(service.Config{})
	defer s.Shutdown(context.Background())
	for i := 0; i < b.N; i++ {
		res, err := s.Run(context.Background(), service.JobSpec{
			Kind: "multicore", Sweep: true, Warmup: 2_000, Measure: 5_000, Seed: int64(i) + 1})
		if err != nil || res.Artifacts["sec7"] == "" {
			b.Fatalf("empty section (err=%v)", err)
		}
	}
}

// BenchmarkShardedSuite runs one whole suite job through the daemon's
// shard scheduler, on one worker and on eight. A fresh service per
// iteration keeps the caches cold; the pair shows the sweep fan-out win
// on multi-core hosts.
func BenchmarkShardedSuite(b *testing.B) {
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			spec := service.JobSpec{Kind: "suite", Warmup: 5_000, Measure: 15_000}
			for i := 0; i < b.N; i++ {
				s := service.New(service.Config{Workers: workers})
				if _, err := s.Run(context.Background(), spec); err != nil {
					b.Fatalf("suite: %v", err)
				}
				if err := s.Shutdown(context.Background()); err != nil {
					b.Fatalf("shutdown: %v", err)
				}
			}
		})
	}
}

// BenchmarkAblationSinglePort reruns the CPI comparison with merged L1
// ports (the other Sec. 7 evaluation).
func BenchmarkAblationSinglePort(b *testing.B) {
	bud := benchBudget()
	for i := 0; i < b.N; i++ {
		if out, err := experiments.SinglePortAblation(context.Background(), bud); err != nil || out == "" {
			b.Fatalf("empty ablation (err=%v)", err)
		}
	}
}

// BenchmarkAblationEarlyWriteback measures the early write-back sweep.
func BenchmarkAblationEarlyWriteback(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out, err := experiments.EarlyWritebackAblation(context.Background(), 30_000, int64(i)); err != nil || out == "" {
			b.Fatalf("empty ablation (err=%v)", err)
		}
	}
}

// BenchmarkMonteCarloMTTF runs one accelerated-rate lifetime cell, the
// montecarlo job kind's unit of work (the PARMA-style cross-validation):
// it gates the arena reuse of the trial executor on the longest-running
// campaign type.
func BenchmarkMonteCarloMTTF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cell, err := experiments.MonteCarloCellCtx(context.Background(), "parity-1d", 4, 1)
		if err != nil || cell.Res.Trials != 4 {
			b.Fatalf("montecarlo cell broke: %+v (err=%v)", cell, err)
		}
	}
}

// BenchmarkMulticoreCell runs one Sec. 7 cell (gzip, two cores, 30%
// shared) and asks for it plain and with silent-store elision. Either
// way the cell simulates once on engines that count silent stores and
// takes the energy accounting path end to end: per-engine fold and
// elision counts, both pricings of the L1 and L2 reports and the bus
// model.
func BenchmarkMulticoreCell(b *testing.B) {
	p := profile(b, "gzip")
	bud := experiments.Budget{Warmup: 5_000, Measure: 15_000, Seed: 1}
	for _, silent := range []bool{false, true} {
		b.Run(fmt.Sprintf("silent=%v", silent), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				run, err := experiments.MulticoreCellCtx(context.Background(), p, 2, 0.3, silent, bud)
				if err != nil || run.CPI <= 0 || run.TotalEnergyPJ() <= 0 {
					b.Fatalf("multicore cell broke: cpi=%v energy=%v (err=%v)", run.CPI, run.TotalEnergyPJ(), err)
				}
			}
		})
	}
}

// BenchmarkMulticoreCellWorkers runs one eight-core Sec. 7 cell (gzip,
// 30% shared) with no spare worker and with one: the serial path, where
// the executing goroutine draws every core's trace itself, against the
// cluster's read-ahead, where a producer goroutine draws it ahead of
// execution. Both read the same cell bit for bit.
func BenchmarkMulticoreCellWorkers(b *testing.B) {
	p := profile(b, "gzip")
	bud := experiments.Budget{Warmup: 5_000, Measure: 15_000, Seed: 1}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			ctx := experiments.WithCellWorkers(context.Background(), workers)
			for i := 0; i < b.N; i++ {
				run, _, err := experiments.MulticoreCellPricings(ctx, p, 8, 0.3, bud)
				if err != nil || run.CPI <= 0 {
					b.Fatalf("multicore cell broke: cpi=%v (err=%v)", run.CPI, err)
				}
			}
		})
	}
}

// BenchmarkFieldMC runs one field-mix grid cell (populate, exercise and
// probe per trial) on one trial worker and on eight: the fault plane's
// cost on the read path, and the trial fan-out's win on hosts that have
// the cores.
func BenchmarkFieldMC(b *testing.B) {
	pt := experiments.FieldPoint{Footprint: "word", Lifetime: "stuck", Rate: "x1"}
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			ctx := experiments.WithCellWorkers(context.Background(), workers)
			for i := 0; i < b.N; i++ {
				cell, err := experiments.FieldMCCellCtx(ctx, "cppc", pt, 16, 1)
				if err != nil || cell.Counts.Total() != 16 {
					b.Fatalf("fieldmc cell broke: %+v (err=%v)", cell, err)
				}
			}
		})
	}
}

// BenchmarkL3CPI runs one three-level cell: the mcf hierarchy with CPPC
// at no level, at L2 and at L3.
func BenchmarkL3CPI(b *testing.B) {
	p := profile(b, "mcf")
	bud := experiments.Budget{Warmup: 5_000, Measure: 15_000, Seed: 1}
	for i := 0; i < b.N; i++ {
		run, err := experiments.L3Cell(context.Background(), p, bud)
		if err != nil || run.ParityCPI <= 0 {
			b.Fatalf("L3 cell broke: cpi=%v (err=%v)", run.ParityCPI, err)
		}
	}
}

// BenchmarkTagRecovery measures the Sec. 7 tag-array extension's recovery
// sweep.
func BenchmarkTagRecovery(b *testing.B) {
	ccfg, err := icache.Config{
		Name: "tagbench", SizeBytes: 32 << 10, Ways: 2, BlockBytes: 32,
		DirtyGranuleWords: 1, HitLatencyCycles: 2,
	}.Validate()
	if err != nil {
		b.Fatal(err)
	}
	c := icache.New(ccfg)
	eng := icore.MustNewTagEngine(c, icore.DefaultL1Config())
	mem := icache.NewMemory(32, 100)
	// Fill every set.
	for i := 0; i < ccfg.Sets()*ccfg.Ways; i++ {
		addr := uint64(i * ccfg.BlockBytes)
		set, _ := c.Probe(addr)
		way := c.Victim(set)
		ln := c.Line(set, way)
		oldValid, oldTag := ln.Valid, ln.Tag
		buf := make([]uint64, ccfg.BlockWords())
		mem.FetchBlock(addr, buf, 0)
		c.Install(set, way, addr, buf)
		eng.OnInstall(set, way, oldValid, oldTag, c.Line(set, way).Tag)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.FlipTagBits(3, 0, 1<<9)
		if rep := eng.RecoverTag(3, 0); rep.Outcome != icore.OutcomeCorrected {
			b.Fatalf("tag recovery failed: %+v", rep)
		}
	}
}
