// Package experiments regenerates every table and figure in the paper's
// evaluation (Sec. 6) plus the quantitative claims of Secs. 4.6-4.8. A
// sweep is defined here once, as its cells (SuiteCells, Section7Points,
// L3Benches, MonteCarloSchemes, FieldMCPoints), the function that runs
// one cell and the renderer that turns the cells into a table.
// internal/service plans and schedules those cells for the daemon and
// for cmd/repro alike, so every caller reports identical numbers for a
// given instruction budget and seed.
package experiments

import (
	"context"
	"fmt"

	"cppc/internal/cache"
	"cppc/internal/core"
	"cppc/internal/cpu"
	"cppc/internal/energy"
	"cppc/internal/protect"
	"cppc/internal/reliability"
	"cppc/internal/tables"
	"cppc/internal/trace"
)

// Budget scales every simulation-based experiment.
type Budget struct {
	Warmup  int // instructions to warm the hierarchy before measuring
	Measure int // instructions measured
	Seed    int64
}

// DefaultBudget is the cmd/repro default: big enough for stable CPI and
// dirty-occupancy numbers, small enough to run all experiments in a few
// minutes.
func DefaultBudget() Budget { return Budget{Warmup: 500_000, Measure: 1_500_000, Seed: 1} }

// QuickBudget keeps test and benchmark runtime low.
func QuickBudget() Budget { return Budget{Warmup: 150_000, Measure: 300_000, Seed: 1} }

// SchemeID names the evaluated protections: the paper's four, plus the
// silent-store-elision CPPC variant (an ablation outside the committed
// figure matrix — SuiteCells stays at the paper's four schemes).
type SchemeID int

const (
	Parity1D SchemeID = iota
	CPPC
	SECDED
	TwoDim
	CPPCSilent
)

func (s SchemeID) String() string {
	return [...]string{"parity-1d", "cppc", "secded", "parity-2d", "cppc-silent"}[s]
}

// ParseScheme maps a scheme's String name back to its ID.
func ParseScheme(name string) (SchemeID, error) {
	for id := Parity1D; id <= CPPCSilent; id++ {
		if id.String() == name {
			return id, nil
		}
	}
	return 0, fmt.Errorf("unknown scheme %q (want parity-1d, cppc, secded, parity-2d or cppc-silent)", name)
}

// schemes builds every named protection in its evaluated configuration
// (Sec. 6) — the SchemeID names, plus the CPPC byte-shift and pair-count
// ablations of the fault campaigns. A scheme sizes itself to its cache
// (a CPPC register pair is one dirty granule wide), so one factory serves
// every level.
var schemes = map[string]protect.Factory{
	"parity-1d":    cpu.Parity1DFactory(),
	"parity-2d":    cpu.TwoDimFactory(),
	"secded":       cpu.SECDEDFactory(true),
	"cppc":         cpu.CPPCFactory(core.DefaultL1Config()),
	"cppc-silent":  cpu.CPPCFactory(core.SilentL1Config()),
	"cppc-noshift": cpu.CPPCFactory(core.Config{ParityDegree: 8, RegisterPairs: 1}),
	"cppc-2pair":   cpu.CPPCFactory(core.Config{ParityDegree: 8, RegisterPairs: 2, ByteShifting: true}),
}

// isCPPC reports whether a scheme carries a CPPC engine whose event
// counters (folds, elided stores) feed the energy model.
func isCPPC(id SchemeID) bool { return id == CPPC || id == CPPCSilent }

// Run is one benchmark simulated under one scheme at both levels.
type Run struct {
	Bench  string
	Scheme SchemeID
	CPI    float64
	L1     cache.Stats
	L2     cache.Stats
	L1Gran struct{ Dirty, Tavg float64 }
	L2Gran struct{ Dirty, Tavg float64 }
	Folds  struct{ L1, L2 uint64 } // CPPC register updates
	Elided struct{ L1, L2 uint64 } // silent stores elided (cppc-silent)
}

// Energy prices the run's measured L1 and L2 traffic with its scheme's
// energy models, the ones Figs. 11 and 12 use. Only a CPPC scheme pays
// for register folds and saves the writes and folds of elided silent
// stores.
func (r Run) Energy() (l1, l2 energy.Report) {
	var folds, elided struct{ L1, L2 uint64 }
	if isCPPC(r.Scheme) {
		folds, elided = r.Folds, r.Elided
	}
	l1 = energy.CountElided(r.L1, l1EnergyModel(r.Scheme), 1, folds.L1, elided.L1)
	l2 = energy.CountElided(r.L2, l2EnergyModel(r.Scheme), 4, folds.L2, elided.L2)
	return l1, l2
}

// SimulateCtx runs one benchmark under one scheme and collects
// everything the figures need. The context is polled inside the
// instruction loop, so even a multi-million-instruction cell aborts
// promptly.
func SimulateCtx(ctx context.Context, prof trace.Profile, id SchemeID, b Budget) (Run, error) {
	return SimulateSourceCtx(ctx, prof.Name, prof.NewGen(b.Seed), id, b)
}

// SimulateSourceCtx is SimulateCtx over any instruction source, e.g. a
// recorded trace file.
func SimulateSourceCtx(ctx context.Context, name string, src trace.Source, id SchemeID, b Budget) (Run, error) {
	mk := schemes[id.String()]
	sys := cpu.NewSystem(mk, mk)
	defer sys.Release()
	res, err := cpu.RunSourceWarmCtx(ctx, src, b.Warmup, b.Measure, sys)
	if err != nil {
		return Run{}, err
	}
	r := Run{Bench: name, Scheme: id, CPI: res.CPI, L1: sys.L1().Stats, L2: sys.L2().Stats}
	r.L1Gran.Dirty = sys.L1().C.DirtyFraction()
	r.L1Gran.Tavg = sys.L1().C.Tavg()
	r.L2Gran.Dirty = sys.L2().C.DirtyFraction()
	r.L2Gran.Tavg = sys.L2().C.Tavg()
	if isCPPC(id) {
		// Measure-window folds only: RunSourceWarmCtx reset the engine
		// events together with the cache stats at the warmup boundary.
		l1e := sys.L1().Scheme.(*protect.CPPCScheme).Engine.Events
		l2e := sys.L2().Scheme.(*protect.CPPCScheme).Engine.Events
		r.Folds.L1, r.Folds.L2 = l1e.Folds, l2e.Folds
		r.Elided.L1, r.Elided.L2 = l1e.SilentStoresElided, l2e.SilentStoresElided
	}
	return r, nil
}

// Suite holds one Run per (benchmark, scheme).
type Suite struct {
	Budget Budget
	Runs   map[string]map[SchemeID]Run // bench -> scheme -> run
	Order  []string                    // benchmark order
}

// SuiteCell names one cell of the suite matrix: one benchmark under one
// scheme. The shard planner expands the matrix through SuiteCells, so
// there is exactly one definition of what the suite computes.
type SuiteCell struct {
	Bench  string
	Scheme SchemeID
}

// SuiteCells returns the full (benchmark, scheme) matrix in canonical
// order: benchmarks in trace.Profiles() order, schemes in SchemeID order.
func SuiteCells() []SuiteCell {
	profiles := trace.Profiles()
	ids := []SchemeID{Parity1D, CPPC, SECDED, TwoDim}
	cells := make([]SuiteCell, 0, len(profiles)*len(ids))
	for _, p := range profiles {
		for _, id := range ids {
			cells = append(cells, SuiteCell{Bench: p.Name, Scheme: id})
		}
	}
	return cells
}

// NewSuite returns an empty suite with the benchmark order prefilled, so
// cells can be added in any completion order without changing a byte of
// the rendered figures.
func NewSuite(b Budget) *Suite {
	s := &Suite{Budget: b, Runs: map[string]map[SchemeID]Run{}}
	for _, p := range trace.Profiles() {
		s.Order = append(s.Order, p.Name)
		s.Runs[p.Name] = map[SchemeID]Run{}
	}
	return s
}

// Add records one completed cell.
func (s *Suite) Add(run Run) { s.Runs[run.Bench][run.Scheme] = run }

// Table1 renders the evaluation parameters (the paper's Table 1).
func Table1() string {
	t := tables.New("Table 1: evaluation parameters", "parameter", "value")
	cfg := cpu.Table1Config()
	t.Addf("functional units", fmt.Sprintf("%d int ALU, %d int mul/div, %d FP ALU, %d FP mul/div",
		cfg.IntALU, cfg.IntMul, cfg.FPALU, cfg.FPMul))
	t.Addf("LSQ / RUU size", fmt.Sprintf("%d / %d instructions", cfg.LSQSize, cfg.RUUSize))
	t.Addf("issue width", fmt.Sprintf("%d instructions/cycle", cfg.IssueWidth))
	t.Addf("frequency", fmt.Sprintf("%.0f GHz", cfg.FreqHz/1e9))
	l1 := cache.L1DConfig()
	t.Addf("L1 data cache", fmt.Sprintf("%dKB, %d-way, %dB lines, %d cycles",
		l1.SizeBytes/1024, l1.Ways, l1.BlockBytes, l1.HitLatencyCycles))
	l2 := cache.L2Config()
	t.Addf("L2 cache", fmt.Sprintf("%dMB unified, %d-way, %dB lines, %d cycles",
		l2.SizeBytes>>20, l2.Ways, l2.BlockBytes, l2.HitLatencyCycles))
	li := cache.L1IConfig()
	t.Addf("L1 instruction cache", fmt.Sprintf("%dKB, %d-way, %dB lines, %d cycle",
		li.SizeBytes/1024, li.Ways, li.BlockBytes, li.HitLatencyCycles))
	t.Addf("feature size", "32nm")
	return t.String()
}

// Figure10 renders CPIs normalized to the one-dimensional-parity
// baseline (the paper's Fig. 10: CPPC ~+0.3% average, 2D parity ~+1.7%
// average and up to 6.9%).
func (s *Suite) Figure10() string { return s.figure10Table().String() }

// Figure10CSV is Figure10 as comma-separated values for plotting.
func (s *Suite) Figure10CSV() string { return s.figure10Table().CSV() }

func (s *Suite) figure10Table() *tables.Table {
	t := tables.New("Figure 10: normalized CPI of L1 protection schemes (baseline = parity-1d)",
		"benchmark", "parity-1d", "cppc", "parity-2d")
	var sumC, sumT float64
	for _, b := range s.Order {
		base := s.Runs[b][Parity1D].CPI
		c := s.Runs[b][CPPC].CPI / base
		d := s.Runs[b][TwoDim].CPI / base
		sumC += c
		sumT += d
		t.Addf(b, 1.0, c, d)
	}
	n := float64(len(s.Order))
	t.Addf("average", 1.0, sumC/n, sumT/n)
	return t
}

// l1EnergyModel builds the per-scheme L1 energy model.
func l1EnergyModel(id SchemeID) *energy.Model {
	cfg := cache.L1DConfig()
	switch id {
	case SECDED:
		return energy.New(cfg, 8, 8) // (72,64) code, 8-way bit interleaving
	default:
		return energy.New(cfg, 8, 1) // 8 interleaved parity bits per word
	}
}

// l2EnergyModel builds the per-scheme L2 energy model (block granules).
func l2EnergyModel(id SchemeID) *energy.Model {
	cfg := cache.L2Config()
	switch id {
	case SECDED:
		return energy.New(cfg, 10, 8) // (266,256) block code, interleaved
	default:
		return energy.New(cfg, 8, 1) // 8 interleaved parity bits per block
	}
}

// energyRow computes one benchmark's normalized energies at one level.
func (s *Suite) energyRow(bench string, level int) (vals [4]float64) {
	for i, id := range []SchemeID{Parity1D, CPPC, SECDED, TwoDim} {
		l1, l2 := s.Runs[bench][id].Energy()
		if level == 1 {
			vals[i] = l1.Total()
		} else {
			vals[i] = l2.Total()
		}
	}
	base := vals[0]
	for i := range vals {
		vals[i] /= base
	}
	return vals
}

// Figure11 renders normalized L1 dynamic energy (paper: CPPC ~1.14,
// SECDED ~1.42, 2D ~1.70).
func (s *Suite) Figure11() string { return s.energyFigure(1, "Figure 11", "L1").String() }

// Figure12 renders normalized L2 dynamic energy (paper: CPPC ~1.07,
// SECDED ~1.68, 2D ~1.75, with mcf blowing up under 2D).
func (s *Suite) Figure12() string { return s.energyFigure(2, "Figure 12", "L2").String() }

// Figure11CSV and Figure12CSV export the energy series for plotting.
func (s *Suite) Figure11CSV() string { return s.energyFigure(1, "Figure 11", "L1").CSV() }
func (s *Suite) Figure12CSV() string { return s.energyFigure(2, "Figure 12", "L2").CSV() }

func (s *Suite) energyFigure(level int, fig, lvl string) *tables.Table {
	t := tables.New(fmt.Sprintf("%s: normalized %s dynamic energy (baseline = parity-1d)", fig, lvl),
		"benchmark", "parity-1d", "cppc", "secded", "parity-2d")
	var sum [4]float64
	for _, b := range s.Order {
		v := s.energyRow(b, level)
		for i := range sum {
			sum[i] += v[i]
		}
		t.Addf(b, v[0], v[1], v[2], v[3])
	}
	n := float64(len(s.Order))
	t.Addf("average", sum[0]/n, sum[1]/n, sum[2]/n, sum[3]/n)
	return t
}

// Table2Values aggregates the measured dirty fractions and Tavg across
// benchmarks (the paper's Table 2: L1 16% / 1828 cycles, L2 35% / 378997
// cycles).
type Table2Values struct {
	L1Dirty, L2Dirty float64
	L1Tavg, L2Tavg   float64
}

// Table2 computes the measured averages from the parity baseline runs.
func (s *Suite) Table2() Table2Values {
	var v Table2Values
	n := float64(len(s.Order))
	for _, b := range s.Order {
		run := s.Runs[b][Parity1D]
		v.L1Dirty += run.L1Gran.Dirty / n
		v.L2Dirty += run.L2Gran.Dirty / n
		v.L1Tavg += run.L1Gran.Tavg / n
		v.L2Tavg += run.L2Gran.Tavg / n
	}
	return v
}

// Table2String renders measured-vs-paper Table 2.
func (s *Suite) Table2String() string {
	v := s.Table2()
	t := tables.New("Table 2: dirty-data parameters (measured vs. paper)",
		"parameter", "measured", "paper")
	t.Addf("L1 dirty fraction", tables.Pct(v.L1Dirty), "16%")
	t.Addf("L2 dirty fraction", tables.Pct(v.L2Dirty), "35%")
	t.Addf("L1 Tavg (cycles)", fmt.Sprintf("%.0f", v.L1Tavg), "1828")
	t.Addf("L2 Tavg (cycles)", fmt.Sprintf("%.0f", v.L2Tavg), "378997")
	return t.String()
}

// Table3 renders the MTTF comparison, both with the paper's Table 2
// inputs and with this run's measured inputs.
func (s *Suite) Table3() string {
	meas := s.Table2()
	mkParams := func(total int, dirty, tavg float64) reliability.Params {
		return reliability.Params{
			FITPerBit: 0.001, AVF: 0.7, FreqHz: 3e9,
			TotalBits: total, DirtyFraction: dirty, TavgCycles: tavg,
		}
	}
	paperL1, paperL2 := reliability.PaperL1Params(), reliability.PaperL2Params()
	measL1 := mkParams(32*1024*8, meas.L1Dirty, meas.L1Tavg)
	measL2 := mkParams(1024*1024*8, meas.L2Dirty, meas.L2Tavg)

	t := tables.New("Table 3: MTTF against temporal multi-bit errors (years)",
		"cache", "L1 (paper inputs)", "L1 (measured)", "L2 (paper inputs)", "L2 (measured)")
	t.Addf("parity-1d",
		tables.Sci(reliability.Parity1DMTTFYears(paperL1)),
		tables.Sci(reliability.Parity1DMTTFYears(measL1)),
		tables.Sci(reliability.Parity1DMTTFYears(paperL2)),
		tables.Sci(reliability.Parity1DMTTFYears(measL2)))
	cd := reliability.CPPCDomains(8, 1)
	t.Addf("cppc",
		tables.Sci(reliability.DoubleFaultMTTFYears(paperL1, cd)),
		tables.Sci(reliability.DoubleFaultMTTFYears(measL1, cd)),
		tables.Sci(reliability.DoubleFaultMTTFYears(paperL2, cd)),
		tables.Sci(reliability.DoubleFaultMTTFYears(measL2, cd)))
	t.Addf("secded",
		tables.Sci(reliability.DoubleFaultMTTFYears(paperL1, reliability.SECDEDDomains(paperL1, 64))),
		tables.Sci(reliability.DoubleFaultMTTFYears(measL1, reliability.SECDEDDomains(measL1, 64))),
		tables.Sci(reliability.DoubleFaultMTTFYears(paperL2, reliability.SECDEDDomains(paperL2, 256))),
		tables.Sci(reliability.DoubleFaultMTTFYears(measL2, reliability.SECDEDDomains(measL2, 256))))
	return t.String() +
		"paper reports: parity 4490 / 64 years; CPPC 8.02e21 / 8.07e15; SECDED 6.2e23 / 1.1e19\n"
}

// Section47 renders the temporal-aliasing MTTF versus register pairs
// (paper: 4.19e20 years for the evaluated L2 with one pair).
func Section47() string {
	t := tables.New("Sec. 4.7: temporal-aliasing SDC MTTF vs. register pairs (evaluated L2)",
		"pairs", "alias bits", "MTTF (years)")
	p := reliability.PaperL2Params()
	for _, pairs := range []int{1, 2, 4, 8} {
		bits := reliability.AliasBitsForPairs(pairs)
		if bits == 0 {
			t.Addf(pairs, bits, "eliminated")
			continue
		}
		t.Addf(pairs, bits, tables.Sci(reliability.AliasingMTTFYears(p, bits)))
	}
	return t.String() + "paper reports 4.19e20 years with one pair\n"
}

// Section48 renders the barrel-shifter critical-path argument, plus the
// Sec. 3.2/5 argument that the recovery procedure's cost is ignorable:
// a full recovery sweep reads every cache row once, which takes
// microseconds, and it happens once per MTTF.
func Section48() string {
	t := tables.New("Sec. 4.8: barrel shifter vs. cache access", "quantity", "value")
	l1 := energy.New(cache.L1DConfig(), 8, 1)
	t.Addf("barrel shifter delay", fmt.Sprintf("%.3f ns", energy.BarrelShifterDelayNs()))
	t.Addf("L1 access time", fmt.Sprintf("%.3f ns", l1.AccessTimeNs()))
	t.Addf("fold energy (word)", fmt.Sprintf("%.2f pJ", energy.FoldEnergy(1)))
	t.Addf("L1 read energy", fmt.Sprintf("%.1f pJ", l1.Read(1)))

	// Recovery cost: pipelined row reads of the whole array plus the XOR
	// folding, at the Table 1 clock.
	cfg := cpu.Table1Config()
	sweep := func(c cache.Config) (cycles uint64, us float64, perYear float64, mttf float64) {
		rows := uint64(c.Layout().Rows())
		cycles = rows + uint64(c.HitLatencyCycles)
		us = float64(cycles) / cfg.FreqHz * 1e6
		var p reliability.Params
		if c.SizeBytes >= 1<<20 {
			p = reliability.PaperL2Params()
		} else {
			p = reliability.PaperL1Params()
		}
		// Recoveries fire roughly once per detected fault: the parity-MTTF
		// rate bounds it from above.
		mttf = reliability.Parity1DMTTFYears(p)
		perYear = 1 / mttf
		return
	}
	for _, c := range []cache.Config{cache.L1DConfig(), cache.L2Config()} {
		cycles, us, perYear, _ := sweep(c)
		t.Addf(fmt.Sprintf("%s recovery sweep", c.Name),
			fmt.Sprintf("%d cycles (%.2f us), expected %.2e sweeps/year", cycles, us, perYear))
	}
	return t.String() +
		"a microsecond sweep a few times per millennium: recovery cost is ignorable (Sec. 3.2)\n"
}
