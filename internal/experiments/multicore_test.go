package experiments

import (
	"context"
	"math"
	"strings"
	"testing"

	"cppc/internal/cache"
	"cppc/internal/coherence"
	"cppc/internal/cpu"
	"cppc/internal/energy"
	"cppc/internal/protect"
	"cppc/internal/trace"
)

// multicoreFolds sums the CPPC fold counters across every engine of the
// shared hierarchy.
func multicoreFolds(m *coherence.Multiprocessor) uint64 {
	var n uint64
	for _, l1 := range m.L1s {
		n += l1.Scheme.(*protect.CPPCScheme).Engine.Events.Folds
	}
	return n + m.L2.Scheme.(*protect.CPPCScheme).Engine.Events.Folds
}

// TestMulticoreWarmupFoldInvariance: the fold counts a multicore cell
// reports must cover the measurement window only. An uninterrupted run
// of the same deterministic streams gives the total folds across both
// windows; the cell's counts must equal that total minus the folds the
// warmup produced. (The bug: Multiprocessor.ResetStats cleared the
// cache stats at the warmup boundary but not the engines' event
// counters, so warmup folds leaked into every multicore energy figure.)
func TestMulticoreWarmupFoldInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("timed multicore simulation")
	}
	const cores, sf = 2, 0.3
	const warm, meas = 5_000, 15_000
	p, ok := trace.ProfileByName("gzip")
	if !ok {
		t.Fatal("gzip profile missing")
	}
	m := coherence.New(cores, cache.L1DConfig(), cache.L2Config(), schemes["cppc"], schemes["cppc"], 200)
	defer m.Release()
	m.Timing = coherence.DefaultTiming()
	ports := make([]cpu.MemoryPort, cores)
	srcs := make([]trace.Source, cores)
	for i, g := range p.NewCoreGens(cores, sf, 1) {
		ports[i] = m.CorePort(i)
		srcs[i] = g
	}
	cl, err := cpu.NewCluster(cpu.Table1Config(), ports, srcs)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Release()
	// No ResetStats between the windows: folds accumulate across both.
	if _, err := cl.RunCtx(context.Background(), warm, 0); err != nil {
		t.Fatal(err)
	}
	warmFolds := multicoreFolds(m)
	if _, err := cl.RunCtx(context.Background(), meas, 0); err != nil {
		t.Fatal(err)
	}
	allFolds := multicoreFolds(m)
	if warmFolds == 0 {
		t.Fatal("warmup produced no folds; the invariance check is vacuous")
	}

	run, err := MulticoreCellCtx(context.Background(), p, cores, sf, false, Budget{Warmup: warm, Measure: meas, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := run.FoldsL1+run.FoldsL2, allFolds-warmFolds; got != want {
		t.Errorf("cell reported %d folds, want measure-window-only %d (total %d, warmup %d)",
			got, want, allFolds, warmFolds)
	}
}

// TestSection7TableGuardsDegenerateRuns: a halted or zero-budget cell
// has no stores and no energy; the renderer must print zeros, never NaN
// or Inf.
func TestSection7TableGuardsDegenerateRuns(t *testing.T) {
	out := Section7Table([]MulticoreRun{
		{Bench: "gzip", Cores: 1, SharedFrac: 0},
		{Bench: "gzip", Cores: 2, SharedFrac: 0.3},
	})
	for _, bad := range []string{"NaN", "Inf"} {
		if strings.Contains(out, bad) {
			t.Errorf("degenerate runs rendered %s:\n%s", bad, out)
		}
	}
	for _, want := range []string{"energy (nJ)", "energy vs 1 core"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q column", want)
		}
	}
}

// TestMulticoreSilentElision: both pricings of a sweep point come from
// one simulation, so the cppc-silent cell equals the plain one in
// timing, cache and coherence stats and folds, counts a non-zero number
// of silent stores, and spends less energy by exactly the priced
// savings: one L1 or L2 write and two folds per elided store.
func TestMulticoreSilentElision(t *testing.T) {
	if testing.Short() {
		t.Skip("timed multicore simulation")
	}
	p, ok := trace.ProfileByName("gzip")
	if !ok {
		t.Fatal("gzip profile missing")
	}
	b := Budget{Warmup: 5_000, Measure: 15_000, Seed: 3}
	plain, err := MulticoreCellCtx(context.Background(), p, 2, 0.3, false, b)
	if err != nil {
		t.Fatal(err)
	}
	silent, err := MulticoreCellCtx(context.Background(), p, 2, 0.3, true, b)
	if err != nil {
		t.Fatal(err)
	}
	if p2, s2, err := MulticoreCellPricings(context.Background(), p, 2, 0.3, b); err != nil || p2 != plain || s2 != silent {
		t.Errorf("MulticoreCellPricings disagrees with MulticoreCellCtx (err %v)", err)
	}
	if plain.CPI != silent.CPI || plain.Cycles != silent.Cycles {
		t.Errorf("elision changed timing: plain CPI %v / %d cycles, silent %v / %d",
			plain.CPI, plain.Cycles, silent.CPI, silent.Cycles)
	}
	if plain.L1 != silent.L1 || plain.L2 != silent.L2 || plain.Coherence != silent.Coherence {
		t.Error("elision changed cache or coherence statistics")
	}
	if plain.FoldsL1 != silent.FoldsL1 || plain.FoldsL2 != silent.FoldsL2 {
		t.Errorf("folds differ: plain %d/%d, silent %d/%d", plain.FoldsL1, plain.FoldsL2, silent.FoldsL1, silent.FoldsL2)
	}
	if plain.ElidedL1 != 0 || plain.ElidedL2 != 0 || plain.Silent || !silent.Silent {
		t.Errorf("pricing labels: plain elided %d/%d silent=%v, silent run silent=%v",
			plain.ElidedL1, plain.ElidedL2, plain.Silent, silent.Silent)
	}
	if silent.ElidedL1 == 0 {
		t.Fatal("no silent stores elided; assertions below are vacuous")
	}
	checkElisionPricing(t, "L1", plain.EnergyL1, silent.EnergyL1, l1EnergyModel(CPPC), 1, silent.ElidedL1)
	checkElisionPricing(t, "L2", plain.EnergyL2, silent.EnergyL2, l2EnergyModel(CPPC), cache.L1DConfig().BlockWords(), silent.ElidedL2)
	if plain.EnergyBus != silent.EnergyBus {
		t.Error("elision changed bus energy")
	}
	if silent.TotalEnergyPJ() >= plain.TotalEnergyPJ() {
		t.Errorf("silent total energy %v not below plain %v", silent.TotalEnergyPJ(), plain.TotalEnergyPJ())
	}
}

// checkElisionPricing fails the test unless silent is plain less exactly
// the priced savings of elided stores — one write of words words and two
// folds each, up to rounding — with read and RBW energy unchanged.
func checkElisionPricing(t *testing.T, level string, plain, silent energy.Report, m *energy.Model, words int, elided uint64) {
	t.Helper()
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Abs(b) }
	wantWrite := float64(elided) * m.Write(words)
	wantFold := 2 * float64(elided) * energy.FoldEnergy(m.Cfg.DirtyGranuleWords)
	if !near(plain.WritePJ-silent.WritePJ, wantWrite) || !near(plain.FoldPJ-silent.FoldPJ, wantFold) {
		t.Errorf("%s savings: write %v fold %v, want %v and %v", level,
			plain.WritePJ-silent.WritePJ, plain.FoldPJ-silent.FoldPJ, wantWrite, wantFold)
	}
	if plain.ReadPJ != silent.ReadPJ || plain.RBWPJ != silent.RBWPJ {
		t.Errorf("%s: elision changed read or RBW energy", level)
	}
}

// TestMulticoreSilentDeterminism: the silent knob keeps the cell
// deterministic — two runs with the same seed are equal field for
// field.
func TestMulticoreSilentDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("timed multicore simulation")
	}
	p, ok := trace.ProfileByName("gzip")
	if !ok {
		t.Fatal("gzip profile missing")
	}
	b := Budget{Warmup: 5_000, Measure: 15_000, Seed: 9}
	r1, err := MulticoreCellCtx(context.Background(), p, 2, 0.5, true, b)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := MulticoreCellCtx(context.Background(), p, 2, 0.5, true, b)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Errorf("same seed produced different silent runs:\n%+v\n%+v", r1, r2)
	}
	if !r1.Silent {
		t.Error("run does not record its silent variant")
	}
}

// TestSimulateSilentBitIdentical: on the single-core system, the
// cppc-silent scheme performs every store plain CPPC does, so timing,
// cache stats and folds are equal, and its energy falls by exactly the
// priced savings of its non-zero elision count.
func TestSimulateSilentBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("timed simulation")
	}
	p, ok := trace.ProfileByName("gzip")
	if !ok {
		t.Fatal("gzip profile missing")
	}
	b := Budget{Warmup: 5_000, Measure: 15_000, Seed: 1}
	plain, err := SimulateCtx(context.Background(), p, CPPC, b)
	if err != nil {
		t.Fatal(err)
	}
	silent, err := SimulateCtx(context.Background(), p, CPPCSilent, b)
	if err != nil {
		t.Fatal(err)
	}
	if plain.CPI != silent.CPI {
		t.Errorf("elision changed CPI: %v vs %v", plain.CPI, silent.CPI)
	}
	if plain.L1 != silent.L1 || plain.L2 != silent.L2 || plain.L1Gran != silent.L1Gran || plain.L2Gran != silent.L2Gran {
		t.Error("elision changed cache statistics")
	}
	if plain.Folds != silent.Folds {
		t.Errorf("folds differ: plain %+v, silent %+v", plain.Folds, silent.Folds)
	}
	if silent.Elided.L1 == 0 {
		t.Fatal("no L1 stores elided; the comparison is vacuous")
	}
	if plain.Elided.L1 != 0 || plain.Elided.L2 != 0 {
		t.Error("plain CPPC recorded elisions")
	}
	pl1, pl2 := plain.Energy()
	sl1, sl2 := silent.Energy()
	checkElisionPricing(t, "L1", pl1, sl1, l1EnergyModel(CPPC), 1, silent.Elided.L1)
	checkElisionPricing(t, "L2", pl2, sl2, l2EnergyModel(CPPC), 4, silent.Elided.L2)
}

// TestSilentStoreAblationReport smoke-tests the Fig. 11/12-style
// ablation table: the cppc-silent columns render, nothing degenerates
// to NaN, and the timing-neutrality column is present.
func TestSilentStoreAblationReport(t *testing.T) {
	if testing.Short() {
		t.Skip("timed ablation")
	}
	out, err := SilentStoreAblation(context.Background(), Budget{Warmup: 5_000, Measure: 15_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cppc-silent", "elided/store", "CPI silent/cppc"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablation report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "NaN") {
		t.Errorf("ablation report rendered NaN:\n%s", out)
	}
}
