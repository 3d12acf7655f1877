package main

// The three simulation workloads. A round renders one complete artifact
// set — the figures cmd/repro prints, the Sec. 7 sweep, the fault
// campaign tables — through the same public per-cell entry points the
// sequential drivers in internal/experiments call, and times every cell.

import (
	"context"
	"encoding/csv"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cppc/internal/cache"
	"cppc/internal/coherence"
	"cppc/internal/core"
	"cppc/internal/cpu"
	"cppc/internal/energy"
	"cppc/internal/experiments"
	"cppc/internal/protect"
	"cppc/internal/trace"
)

// round is what one round of a workload produced.
type round struct {
	// text is what the round computed (the rendered artifacts, or the
	// daemon jobs' result digests), digested and compared.
	text string
	// golden, when set, is the digest testdata/golden.json records for
	// round 0; otherwise that is the digest of text.
	golden string
	// ref is the part of text that must appear verbatim in
	// repro_output.txt when the round ran at seed 1 and full scale.
	ref string

	timed    time.Duration   // the round's measured time
	lat      []time.Duration // one per op
	failed   int
	problems []string
	counts   map[string]float64 // exact per-layer counts
	instrs   uint64             // simulated instructions, warm-up included, all cores
	trials   int
	paperErr float64
}

func newRound() *round { return &round{counts: map[string]float64{}} }

func (r *round) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// addStats folds a cell's measured cache statistics into the counts.
func (r *round) addStats(l1, l2 cache.Stats, folds uint64) {
	r.counts["cache.l1_misses"] += float64(l1.Misses)
	r.counts["cache.l2_misses"] += float64(l2.Misses)
	r.counts["cache.writebacks"] += float64(l1.WriteBack + l2.WriteBack)
	r.counts["core.folds"] += float64(folds)
	r.counts["l1.rbw"] += float64(l1.ReadBeforeWrite)
	r.counts["l1.stores"] += float64(l1.Stores)
}

// render times the rendering of a round's artifacts.
func render(tr *tracer, f func() string) string {
	var out string
	if tr == nil {
		return f()
	}
	tr.op("experiments.render", layerExperiments, func() { out = f() })
	return out
}

// figSuiteRound simulates the 60-cell (benchmark, scheme) matrix at the
// default budget, cfg.procs cells at a time, and renders Figs. 10-12 and
// Tables 2-3 exactly as `repro -fig10 -fig11 -fig12 -table2 -table3`
// prints them.
func figSuiteRound(ctx context.Context, cfg config, seed int64, tr *tracer) (*round, error) {
	b := cfg.figBudget()
	b.Seed = seed
	cells := experiments.SuiteCells()
	runs := make([]experiments.Run, len(cells))
	drawn := make([]uint64, len(cells))
	errs := make([]error, len(cells))
	lat := make([]time.Duration, len(cells))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range cfg.procs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cells) || ctx.Err() != nil {
					return
				}
				start := time.Now()
				runs[i], drawn[i], errs[i] = simulateCell(ctx, cells[i], b, tr)
				lat[i] = time.Since(start)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	r := newRound()
	r.lat = lat
	want := uint64(b.Warmup + b.Measure)
	suite := experiments.NewSuite(b)
	for i, c := range cells {
		run := runs[i]
		switch {
		case errs[i] != nil:
			r.fail("%s/%s: %v", c.Bench, c.Scheme, errs[i])
			continue
		case drawn[i] != want:
			r.fail("%s/%s drew %d instructions, want %d (halted?)", c.Bench, c.Scheme, drawn[i], want)
		case !(run.CPI > 0) || math.IsInf(run.CPI, 0):
			r.fail("%s/%s: CPI %v", c.Bench, c.Scheme, run.CPI)
		}
		suite.Add(run)
		r.instrs += drawn[i]
		r.addStats(run.L1, run.L2, run.Folds.L1+run.Folds.L2)
	}
	for _, bench := range suite.Order {
		p1, p2 := suite.Runs[bench][experiments.Parity1D].CPI, suite.Runs[bench][experiments.TwoDim].CPI
		if p1 > 0 && p2 < 0.99*p1 {
			r.fail("%s: parity-2d CPI %.4f below 0.99 x parity-1d CPI %.4f", bench, p2, p1)
		}
	}
	r.text = render(tr, func() string {
		return strings.Join([]string{suite.Figure10(), suite.Figure11(), suite.Figure12(),
			suite.Table2String(), suite.Table3()}, "\n") + "\n"
	})
	r.ref = r.text
	r.paperErr = paperErr(suite)
	return r, nil
}

// simulateCell runs one suite cell and reports how many instructions the
// core drew from its trace. Untraced, it is experiments.SimulateCtx with
// a counting source; traced, it is simulateTraced.
func simulateCell(ctx context.Context, c experiments.SuiteCell, b experiments.Budget, tr *tracer) (experiments.Run, uint64, error) {
	prof, ok := trace.ProfileByName(c.Bench)
	if !ok {
		return experiments.Run{}, 0, fmt.Errorf("no profile %q", c.Bench)
	}
	src := &countingSource{src: prof.NewMemoGen(b.Seed)}
	if tr != nil {
		cell := tr.beginCell()
		start := time.Now()
		run, err := simulateTraced(ctx, prof.Name, src, c.Scheme, b, cell)
		cell.end(start)
		return run, src.n, err
	}
	run, err := experiments.SimulateSourceCtx(ctx, prof.Name, src, c.Scheme, b)
	return run, src.n, err
}

// schemeFactories mirrors the experiments package's (L1, L2) protection
// for the paper's four schemes.
func schemeFactories(id experiments.SchemeID) (l1, l2 cpu.SchemeFactory, err error) {
	switch id {
	case experiments.Parity1D:
		return cpu.Parity1DFactory(), cpu.Parity1DFactory(), nil
	case experiments.CPPC:
		return cpu.CPPCFactory(core.DefaultL1Config()), cpu.CPPCFactory(core.DefaultL2Config()), nil
	case experiments.SECDED:
		return cpu.SECDEDFactory(true), cpu.SECDEDFactory(true), nil
	case experiments.TwoDim:
		return cpu.TwoDimFactory(), cpu.TwoDimFactory(), nil
	}
	return nil, nil, fmt.Errorf("scheme %v is not in the suite", id)
}

// simulateTraced is experiments.SimulateSourceCtx rebuilt from its public
// parts, so the core runs over a wrapped memory port and the warm-up and
// the measurement (cpu.RunSourceWarmCtx) are separate spans. The traced
// run's digest must equal the untraced one's, which holds this replica to
// the original.
func simulateTraced(ctx context.Context, name string, src trace.BatchSource, id experiments.SchemeID, b experiments.Budget, cell *cellTrace) (experiments.Run, error) {
	l1f, l2f, err := schemeFactories(id)
	if err != nil {
		return experiments.Run{}, err
	}
	sys := cpu.NewSystem(l1f, l2f)
	defer sys.Release()
	tsrc := cell.source(src)
	c := cpu.NewCoreWithPort(cpu.Table1Config(), cell.port(sys.Port(), layerProtect))
	var w, m cpu.Result
	cell.run("cpu.warmup", func() { w, err = c.RunCtx(ctx, tsrc, b.Warmup) })
	if err == nil {
		sys.ResetStats()
		cell.run("cpu.measure", func() { m, err = c.RunCtx(ctx, tsrc, b.Measure) })
	}
	c.Release()
	if err != nil {
		return experiments.Run{}, err
	}
	m.Cycles -= w.Cycles
	m.CPI = float64(m.Cycles) / float64(m.Instructions)

	r := experiments.Run{Bench: name, Scheme: id, CPI: m.CPI, L1: sys.L1().Stats, L2: sys.L2().Stats}
	r.L1Gran.Dirty = sys.L1().C.DirtyFraction()
	r.L1Gran.Tavg = sys.L1().C.Tavg()
	r.L2Gran.Dirty = sys.L2().C.DirtyFraction()
	r.L2Gran.Tavg = sys.L2().C.Tavg()
	if id == experiments.CPPC {
		l1e := sys.L1().Scheme.(*protect.CPPCScheme).Engine.Events
		l2e := sys.L2().Scheme.(*protect.CPPCScheme).Engine.Events
		r.Folds.L1, r.Folds.L2 = l1e.Folds, l2e.Folds
		r.Elided.L1, r.Elided.L2 = l1e.SilentStoresElided, l2e.SilentStoresElided
	}
	return r, nil
}

// paperAverages are the scheme averages the paper reports for Figs.
// 10-12, by figure and column (EXPERIMENTS.md).
var paperAverages = [3]map[string]float64{
	{"cppc": 1.003, "parity-2d": 1.017},
	{"cppc": 1.14, "secded": 1.42, "parity-2d": 1.70},
	{"cppc": 1.07, "secded": 1.68, "parity-2d": 1.75},
}

// paperErr is the mean |measured - paper| / paper over the eight scheme
// averages, read from the rendered CSV "average" rows: the model error
// that belongs next to any simulated speed-up.
func paperErr(s *experiments.Suite) float64 {
	var sum float64
	var n int
	for i, text := range []string{s.Figure10CSV(), s.Figure11CSV(), s.Figure12CSV()} {
		rd := csv.NewReader(strings.NewReader(text))
		rd.Comment = '#'
		rows, err := rd.ReadAll()
		if err != nil || len(rows) < 2 {
			return math.NaN()
		}
		avg := rows[len(rows)-1]
		for j, col := range rows[0] {
			want, ok := paperAverages[i][col]
			if !ok || j >= len(avg) {
				continue
			}
			got, err := strconv.ParseFloat(avg[j], 64)
			if err != nil {
				return math.NaN()
			}
			sum += math.Abs(got-want) / want
			n++
		}
	}
	if n != 8 {
		return math.NaN()
	}
	return sum / float64(n)
}

// sec7Round runs the Sec. 7 sweep — every Section7Points cell, plain
// CPPC then cppc-silent — one cell at a time with cfg.procs cluster
// workers, and renders both tables as Section7MulticoreCtx does.
func sec7Round(ctx context.Context, cfg config, seed int64, tr *tracer) (*round, error) {
	b := cfg.sec7Budget()
	b.Seed = seed
	prof, ok := trace.ProfileByName("gzip")
	if !ok {
		return nil, fmt.Errorf("no profile gzip")
	}
	ctx = experiments.WithCellWorkers(ctx, cfg.procs)
	r := newRound()
	var tables []string
	for _, silent := range []bool{false, true} {
		var runs []experiments.MulticoreRun
		for _, pt := range experiments.Section7Points() {
			start := time.Now()
			var run experiments.MulticoreRun
			var err error
			if tr == nil {
				run, err = experiments.MulticoreCellCtx(ctx, prof, pt.Cores, pt.SharedFrac, silent, b)
			} else {
				cell := tr.beginCell()
				run, err = multicoreTraced(ctx, prof, pt, silent, b, cell)
				cell.end(start)
			}
			r.lat = append(r.lat, time.Since(start))
			if cerr := ctx.Err(); cerr != nil {
				return nil, cerr
			}
			label := fmt.Sprintf("%d cores shared %.1f silent=%v", pt.Cores, pt.SharedFrac, silent)
			switch {
			case err != nil:
				r.fail("%s: %v", label, err)
			case run.Halted:
				r.fail("%s: halted without faults", label)
			case run.Instructions != uint64(pt.Cores*b.Measure):
				r.fail("%s: measured %d instructions, want %d", label, run.Instructions, pt.Cores*b.Measure)
			case !(run.CPI > 0):
				r.fail("%s: CPI %v", label, run.CPI)
			}
			if err == nil {
				r.instrs += uint64(pt.Cores * (b.Warmup + b.Measure))
				r.addStats(run.L1, run.L2, run.FoldsL1+run.FoldsL2)
				r.counts["coherence.invalidations"] += float64(run.Coherence.Invalidations)
				r.counts["coherence.bus_busy_cycles"] += float64(run.Coherence.BusBusyCycles)
			}
			runs = append(runs, run)
		}
		tables = append(tables, render(tr, func() string { return experiments.Section7Table(runs) }))
	}
	r.text = strings.Join(tables, "\n")
	return r, nil
}

// mpConfigs mirrors the experiments package's multiprocessor geometry:
// per-core 32KB L1s over a shared 1MB L2.
func mpConfigs() (l1, l2 cache.Config, err error) {
	if l1, err = (cache.Config{Name: "mpL1", SizeBytes: 32 << 10, Ways: 2, BlockBytes: 32,
		DirtyGranuleWords: 1, HitLatencyCycles: 2}).Validate(); err != nil {
		return l1, l2, err
	}
	l2, err = cache.Config{Name: "mpL2", SizeBytes: 1 << 20, Ways: 4, BlockBytes: 32,
		DirtyGranuleWords: 4, HitLatencyCycles: 8}.Validate()
	return l1, l2, err
}

// multicoreTraced is experiments.MulticoreCellCtx rebuilt from its public
// parts with every core's trace source and coherence port wrapped. Like
// simulateTraced, the digest comparison with the untraced run keeps it
// equal to the original.
func multicoreTraced(ctx context.Context, prof trace.Profile, pt experiments.MulticorePoint, silent bool, b experiments.Budget, cell *cellTrace) (experiments.MulticoreRun, error) {
	l1cfg, l2cfg, err := mpConfigs()
	if err != nil {
		return experiments.MulticoreRun{}, err
	}
	l1conf, l2conf := core.DefaultL1Config(), core.DefaultL2Config()
	if silent {
		l1conf, l2conf = core.SilentL1Config(), core.SilentL2Config()
	}
	mkL1 := func(c *cache.Cache) protect.Scheme { return protect.MustCPPC(c, l1conf) }
	mkL2 := func(c *cache.Cache) protect.Scheme { return protect.MustCPPC(c, l2conf) }
	m := coherence.New(pt.Cores, l1cfg, l2cfg, mkL1, mkL2, 200)
	defer m.Release()
	m.Timing = coherence.DefaultTiming()

	ports := make([]cpu.MemoryPort, pt.Cores)
	srcs := make([]trace.Source, pt.Cores)
	for i, g := range prof.NewCoreGens(pt.Cores, pt.SharedFrac, b.Seed) {
		ports[i] = cell.port(m.CorePort(i), layerCoherence)
		srcs[i] = cell.source(g)
	}
	cl, err := cpu.NewCluster(cpu.Table1Config(), ports, srcs)
	if err != nil {
		return experiments.MulticoreRun{}, err
	}
	defer cl.Release()
	cl.SetWorkers(experiments.CellWorkers(ctx))
	var warm, meas cpu.MulticoreResult
	cell.run("cpu.warmup", func() { warm, err = cl.RunCtx(ctx, b.Warmup, 0) })
	if err != nil {
		return experiments.MulticoreRun{}, err
	}
	m.ResetStats()
	cell.run("cpu.measure", func() { meas, err = cl.RunCtx(ctx, b.Measure, 0) })
	if err != nil {
		return experiments.MulticoreRun{}, err
	}

	r := experiments.MulticoreRun{
		Bench: prof.Name, Cores: pt.Cores, SharedFrac: pt.SharedFrac, Silent: silent,
		Cycles:       meas.Cycles - warm.Cycles,
		Instructions: meas.Instructions,
		L1:           m.TotalL1Stats(),
		L2:           m.L2.Stats,
		Coherence:    m.Stats,
		Halted:       meas.Halted,
	}
	if per := meas.Instructions / uint64(pt.Cores); per > 0 {
		r.CPI = float64(r.Cycles) / float64(per)
	}
	l1s := m.L1s[0].Scheme.(*protect.CPPCScheme)
	l2s := m.L2.Scheme.(*protect.CPPCScheme)
	l1Model := energy.New(l1cfg, l1s.CheckBitsPerGranule(), l1s.BitlineFactor())
	l2Model := energy.New(l2cfg, l2s.CheckBitsPerGranule(), l2s.BitlineFactor())
	for _, l1 := range m.L1s {
		ev := l1.Scheme.(*protect.CPPCScheme).Engine.Events
		r.FoldsL1 += ev.Folds
		r.ElidedL1 += ev.SilentStoresElided
		r.EnergyL1.Add(energy.CountElided(l1.Stats, l1Model, 1, ev.Folds, ev.SilentStoresElided))
		r.DirtyL1 += l1.C.DirtyFraction() / float64(pt.Cores)
	}
	l2ev := l2s.Engine.Events
	r.FoldsL2, r.ElidedL2 = l2ev.Folds, l2ev.SilentStoresElided
	r.EnergyL2 = energy.CountElided(m.L2.Stats, l2Model, l1cfg.BlockWords(), l2ev.Folds, l2ev.SilentStoresElided)
	r.EnergyBus = energy.CountCoherence(m.Stats, energy.NewBus(l1cfg.BlockWords()))
	return r, nil
}

// fieldRound runs the field-mix grid (FieldMCCtx) and the Monte-Carlo
// validation (MonteCarloValidationCtx), one campaign cell at a time with
// cfg.procs trial workers, and renders both tables.
func fieldRound(ctx context.Context, cfg config, seed int64, tr *tracer) (*round, error) {
	trials := cfg.trials()
	ctx = experiments.WithCellWorkers(ctx, cfg.procs)
	r := newRound()
	timed := func(f func()) {
		start := time.Now()
		if tr == nil {
			f()
		} else {
			tr.op("fault.cell", layerFault, f)
		}
		r.lat = append(r.lat, time.Since(start))
	}
	var cells []experiments.FieldMCCell
	for _, pt := range experiments.FieldMCPoints() {
		for _, s := range experiments.FieldMCSchemes() {
			var c experiments.FieldMCCell
			var err error
			timed(func() { c, err = experiments.FieldMCCellCtx(ctx, s, pt, trials, seed) })
			if cerr := ctx.Err(); cerr != nil {
				return nil, cerr
			}
			switch {
			case err != nil:
				r.fail("fieldmc %s %s: %v", s, pt, err)
			case c.Counts.Total() != trials:
				r.fail("fieldmc %s %s: %d outcomes for %d trials", s, pt, c.Counts.Total(), trials)
			}
			r.trials += trials
			r.counts["fault.corrected"] += float64(c.Counts.Corrected)
			r.counts["fault.due"] += float64(c.Counts.DUE)
			r.counts["fault.sdc"] += float64(c.Counts.SDC)
			cells = append(cells, c)
		}
	}
	var mcs []experiments.MonteCarloCell
	for _, s := range experiments.MonteCarloSchemes() {
		var c experiments.MonteCarloCell
		var err error
		timed(func() { c, err = experiments.MonteCarloCellCtx(ctx, s, trials, seed) })
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		switch {
		case err != nil:
			r.fail("montecarlo %s: %v", s, err)
		case c.Res.Trials != trials || c.Res.DUEs+c.Res.SDCs+c.Res.Censored != trials:
			r.fail("montecarlo %s: outcomes %d/%d/%d for %d trials", s, c.Res.DUEs, c.Res.SDCs, c.Res.Censored, trials)
		}
		r.trials += trials
		mcs = append(mcs, c)
	}
	r.counts["fault.trials"] = float64(r.trials)
	var mc string
	r.text = render(tr, func() string {
		mc = experiments.MonteCarloTable(trials, mcs)
		return experiments.FieldMCTable(trials, cells) + "\n" + mc
	})
	r.ref = mc
	return r, nil
}
