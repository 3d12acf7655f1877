package service_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"cppc/internal/experiments"
	"cppc/internal/service"
	"cppc/internal/trace"
)

// --- Direct-API helpers -------------------------------------------------

func submitSpec(t *testing.T, s *service.Service, spec service.JobSpec) service.Job {
	t.Helper()
	job, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("submit %+v: %v", spec, err)
	}
	return job
}

func waitJob(t *testing.T, s *service.Service, id string, want func(service.Job) bool, timeout time.Duration) service.Job {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		job, err := s.Job(id)
		if err != nil {
			t.Fatalf("job %s: %v", id, err)
		}
		if want(job) {
			return job
		}
		if job.State == service.StateFailed {
			t.Fatalf("job %s failed: %s", id, job.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s (progress %d/%d)",
				id, job.State, job.Progress.Done, job.Progress.Total)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func jobDone(j service.Job) bool { return j.State == service.StateDone }

// cellSuite simulates the suite matrix straight from the cell API —
// SuiteCells, SimulateCtx, NewSuite/Add — with no planner or aggregator
// in the way, so it is the reference a sharded suite must match.
func cellSuite(t *testing.T, b experiments.Budget) *experiments.Suite {
	t.Helper()
	suite := experiments.NewSuite(b)
	for _, c := range experiments.SuiteCells() {
		p, ok := trace.ProfileByName(c.Bench)
		if !ok {
			t.Fatalf("profile %s missing", c.Bench)
		}
		run, err := experiments.SimulateCtx(context.Background(), p, c.Scheme, b)
		if err != nil {
			t.Fatalf("suite cell %s/%s: %v", c.Bench, c.Scheme, err)
		}
		suite.Add(run)
	}
	return suite
}

func shutdown(t *testing.T, s *service.Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// tinyBudget keeps per-cell work to a few milliseconds so sweeps finish
// fast even on one worker.
const tinyWarmup, tinyMeasure = 2000, 5000

// --- Shard semantics ----------------------------------------------------

// TestOverlappingSweepsShareCells submits a standalone simulate job and
// then the full suite: the suite must reuse the simulate job's cell from
// the cell cache (they hash to the same cell spec). A multicore point
// job submitted after a multicore sweep must then complete entirely from
// cache, without executing anything.
func TestOverlappingSweepsShareCells(t *testing.T) {
	s := service.New(service.Config{Workers: 4})
	defer shutdown(t, s)

	sim := submitSpec(t, s, service.JobSpec{
		Kind: "simulate", Bench: "gzip", Scheme: "cppc", Warmup: tinyWarmup, Measure: tinyMeasure,
	})
	waitJob(t, s, sim.ID, jobDone, 30*time.Second)
	if hits := s.Metrics().CellCacheHits; hits != 0 {
		t.Fatalf("unexpected cell cache hits before any overlap: %d", hits)
	}

	suite := submitSpec(t, s, service.JobSpec{
		Kind: "suite", Warmup: tinyWarmup, Measure: tinyMeasure,
	})
	done := waitJob(t, s, suite.ID, jobDone, 120*time.Second)
	if done.Progress.Total != 60 || done.Progress.Done != 60 {
		t.Fatalf("suite progress = %d/%d, want 60/60", done.Progress.Done, done.Progress.Total)
	}
	m := s.Metrics()
	if m.CellCacheHits == 0 {
		t.Fatalf("suite did not reuse the simulate job's cached cell: %+v", m)
	}
	if m.CellsCompleted != 1+59 { // simulate cell + the 59 suite cells it didn't cover
		t.Fatalf("cells executed = %d, want 60", m.CellsCompleted)
	}

	// A sweep primes every one of its points for later point jobs.
	sweep := submitSpec(t, s, service.JobSpec{
		Kind: "multicore", Sweep: true, Warmup: tinyWarmup, Measure: tinyMeasure,
	})
	waitJob(t, s, sweep.ID, jobDone, 60*time.Second)
	executed := s.Metrics().CellsCompleted

	point := submitSpec(t, s, service.JobSpec{
		Kind: "multicore", Cores: 8, SharedFrac: 0.6, Warmup: tinyWarmup, Measure: tinyMeasure,
	})
	if !point.CacheHit || point.State != service.StateDone {
		t.Fatalf("sweep-covered point job = %+v, want synchronous cache-hit completion", point)
	}
	if got := s.Metrics().CellsCompleted; got != executed {
		t.Fatalf("point job executed %d extra cells, want 0", got-executed)
	}
	_, res, err := s.JobResult(point.ID)
	if err != nil || res == nil || res.Artifacts["summary"] == "" {
		t.Fatalf("point job result = %+v, %v", res, err)
	}
}

// TestLateJoinReleasesQueueSlot pins the single-flight accounting: a
// job that joins a cell already in flight is marked running at submit
// (Started set) and releases no queue slot it never held — QueueDepth
// must return to zero once both jobs complete, where the leak left it
// stuck at one per late joiner until every Submit reported a full queue.
func TestLateJoinReleasesQueueSlot(t *testing.T) {
	if testing.Short() {
		t.Skip("timed simulation")
	}
	s := service.New(service.Config{Workers: 1, QueueSize: 2})
	defer shutdown(t, s)

	// Long enough to still be in flight when the twin submission lands.
	spec := service.JobSpec{Kind: "simulate", Bench: "gzip", Scheme: "cppc",
		Warmup: 0, Measure: 20_000_000}
	first := submitSpec(t, s, spec)
	waitJob(t, s, first.ID, func(j service.Job) bool { return j.State == service.StateRunning }, 30*time.Second)

	second := submitSpec(t, s, spec)
	if second.State != service.StateRunning || second.Started == nil {
		t.Fatalf("late-joining twin = state %s, started %v; want running with a start time",
			second.State, second.Started)
	}
	waitJob(t, s, first.ID, jobDone, 2*time.Minute)
	done := waitJob(t, s, second.ID, jobDone, 2*time.Minute)
	if done.Started == nil || done.Finished == nil {
		t.Fatalf("late-joining twin finished without timestamps: %+v", done)
	}
	if depth := s.Metrics().QueueDepth; depth != 0 {
		t.Fatalf("queue depth after both twins completed = %d, want 0", depth)
	}
}

// TestCancelParentCancelsCells cancels a running sweep and requires its
// in-flight cell to stop and its queued cells to be discarded — but a
// cell another job still waits on must survive the cancellation.
func TestCancelParentCancelsCells(t *testing.T) {
	s := service.New(service.Config{Workers: 1})
	defer shutdown(t, s)

	// Default-budget L3 cells run for seconds each: plenty of time to
	// cancel while the first is in flight and three are queued.
	sweep := submitSpec(t, s, service.JobSpec{Kind: "l3", Sweep: true})
	waitJob(t, s, sweep.ID, func(j service.Job) bool { return j.State == service.StateRunning }, 30*time.Second)

	snap, err := s.Cancel(sweep.ID)
	if err != nil {
		t.Fatalf("cancel: %v", err)
	}
	if snap.State != service.StateCanceled || snap.Error == "" {
		t.Fatalf("canceled sweep snapshot = %+v", snap)
	}

	// The orphaned running cell observes its context and the queued cells
	// drain without executing.
	deadline := time.Now().Add(30 * time.Second)
	for {
		m := s.Metrics()
		if m.CellsRunning == 0 && m.CellsQueued == 0 {
			if m.CellsCompleted != 0 {
				t.Fatalf("canceled sweep still completed %d cells", m.CellsCompleted)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cells did not drain after cancel: %+v", m)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Two identical sweeps ride the same cells (single-flight): canceling
	// one must not take the survivor's cells down with it.
	spec := service.JobSpec{Kind: "multicore", Sweep: true, Warmup: tinyWarmup, Measure: tinyMeasure}
	a := submitSpec(t, s, spec)
	b := submitSpec(t, s, spec)
	if b.Hash != a.Hash {
		t.Fatalf("identical sweeps hash differently: %s vs %s", a.Hash, b.Hash)
	}
	if _, err := s.Cancel(a.ID); err != nil {
		t.Fatalf("cancel shared sweep: %v", err)
	}
	done := waitJob(t, s, b.ID, jobDone, 60*time.Second)
	if done.Progress.Done != done.Progress.Total {
		t.Fatalf("surviving sweep progress = %d/%d", done.Progress.Done, done.Progress.Total)
	}
	if _, res, err := s.JobResult(b.ID); err != nil || res == nil || res.Artifacts["sec7"] == "" {
		t.Fatalf("surviving sweep result = %+v, %v", res, err)
	}
}

// TestShardedSuiteByteIdentical requires the sharded suite — on one
// worker and on eight — to render byte-identical artifacts to the suite
// assembled straight from its cells, executing each distinct cell
// exactly once.
func TestShardedSuiteByteIdentical(t *testing.T) {
	seq := cellSuite(t, experiments.Budget{Warmup: tinyWarmup, Measure: tinyMeasure, Seed: 1})
	want := map[string]string{
		"fig10":  seq.Figure10(),
		"fig11":  seq.Figure11(),
		"fig12":  seq.Figure12(),
		"table2": seq.Table2String(),
		"table3": seq.Table3(),
	}

	for _, workers := range []int{1, 8} {
		s := service.New(service.Config{Workers: workers})
		job := submitSpec(t, s, service.JobSpec{Kind: "suite", Warmup: tinyWarmup, Measure: tinyMeasure})
		waitJob(t, s, job.ID, jobDone, 120*time.Second)
		_, res, err := s.JobResult(job.ID)
		if err != nil || res == nil {
			t.Fatalf("suite result on %d workers: %+v, %v", workers, res, err)
		}
		for name, text := range want {
			if res.Artifacts[name] != text {
				t.Fatalf("artifact %q on %d workers diverges from the cell-built suite", name, workers)
			}
		}
		if got, want := s.Metrics().CellsExecuted, len(experiments.SuiteCells()); got != want {
			t.Fatalf("suite on %d workers executed %d cells, want %d", workers, got, want)
		}
		shutdown(t, s)
	}
}

// TestSuiteCSVArtifacts pins the suite's CSV exports: a .csv figure is
// rendered only when named, matches the Suite's CSV renderer, and
// naming one next to the default artifacts never collapses the spec to
// the default "all" form.
func TestSuiteCSVArtifacts(t *testing.T) {
	s := service.New(service.Config{Workers: 2})
	defer shutdown(t, s)
	budget := experiments.Budget{Warmup: tinyWarmup, Measure: tinyMeasure, Seed: 1}
	seq := cellSuite(t, budget)

	spec := service.JobSpec{Kind: "suite", Warmup: tinyWarmup, Measure: tinyMeasure,
		Figures: []string{"fig10.csv", "fig12"}}
	res, err := s.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Artifacts) != 2 || res.Artifacts["fig10.csv"] != seq.Figure10CSV() || res.Artifacts["fig12"] != seq.Figure12() {
		t.Fatalf("csv suite artifacts = %v, want fig10.csv and fig12 from the cell-built suite", res.Artifacts)
	}

	// Every cell is cached now, so these submissions complete at once.
	all := submitSpec(t, s, service.JobSpec{Kind: "suite", Warmup: tinyWarmup, Measure: tinyMeasure})
	five := []string{"fig10", "fig11", "fig12", "table2", "fig10.csv"}
	mixed := submitSpec(t, s, service.JobSpec{Kind: "suite", Warmup: tinyWarmup, Measure: tinyMeasure, Figures: five})
	if mixed.Hash == all.Hash || len(mixed.Spec.Figures) != len(five) {
		t.Fatalf("figures %v normalized to %v (hash shared with all: %v)", five, mixed.Spec.Figures, mixed.Hash == all.Hash)
	}
	_, mres, err := s.JobResult(mixed.ID)
	if err != nil || mres == nil || mres.Artifacts["table3"] != "" || mres.Artifacts["fig10.csv"] != seq.Figure10CSV() {
		t.Fatalf("mixed suite result = %+v, %v", mres, err)
	}

	if _, err := s.Submit(service.JobSpec{Kind: "suite", Figures: []string{"fig99.csv"}}); err == nil {
		t.Fatal("unknown csv figure accepted")
	}
}

// TestShardedSuiteSpeedup measures the tentpole win: the same suite on
// eight workers must run at least 3x faster than on one. The cells need
// real parallel hardware, so the test is skipped on small machines (the
// byte-identical and sharing tests above run everywhere).
func TestShardedSuiteSpeedup(t *testing.T) {
	if p := runtime.GOMAXPROCS(0); p < 8 {
		t.Skipf("need 8 CPUs for the speedup bound, have %d", p)
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	run := func(workers int) time.Duration {
		s := service.New(service.Config{Workers: workers})
		defer shutdown(t, s)
		start := time.Now()
		job := submitSpec(t, s, service.JobSpec{Kind: "suite", Budget: "quick"})
		waitJob(t, s, job.ID, jobDone, 10*time.Minute)
		return time.Since(start)
	}
	wall1 := run(1)
	wall8 := run(8)
	t.Logf("suite wall-clock: 1 worker %v, 8 workers %v (%.2fx)", wall1, wall8, wall1.Seconds()/wall8.Seconds())
	if wall8*3 > wall1 {
		t.Fatalf("8-worker suite only %.2fx faster than 1-worker (want >= 3x)", wall1.Seconds()/wall8.Seconds())
	}
}

// TestSweepSpecNormalization pins the sweep spec surface: sweep applies
// to multicore and l3 only, takes no per-point fields, and montecarlo
// accepts its per-scheme cell form.
func TestSweepSpecNormalization(t *testing.T) {
	s := service.New(service.Config{Workers: 1})
	defer shutdown(t, s)

	bad := []service.JobSpec{
		{Kind: "suite", Sweep: true},
		{Kind: "simulate", Bench: "gzip", Scheme: "cppc", Sweep: true},
		{Kind: "multicore", Sweep: true, Cores: 4},
		{Kind: "multicore", Sweep: true, SharedFrac: 0.3},
		{Kind: "l3", Sweep: true, Bench: "mcf"},
		{Kind: "montecarlo", Scheme: "secded"},
	}
	for _, spec := range bad {
		if _, err := s.Submit(spec); err == nil {
			t.Errorf("spec %+v accepted, want rejection", spec)
		}
	}

	mc := submitSpec(t, s, service.JobSpec{Kind: "montecarlo", Scheme: "cppc", Trials: 2})
	done := waitJob(t, s, mc.ID, jobDone, 60*time.Second)
	if done.Progress.Total != 1 {
		t.Fatalf("single-scheme campaign plans %d cells, want 1", done.Progress.Total)
	}
	full := submitSpec(t, s, service.JobSpec{Kind: "montecarlo", Trials: 2})
	waitJob(t, s, full.ID, jobDone, 60*time.Second)
	if m := s.Metrics(); m.CellCacheHits == 0 {
		t.Fatalf("full campaign did not reuse the single-scheme cell: %+v", m)
	}
}

// TestShardedFieldMCByteIdentical requires the sharded fieldmc job — on
// one worker and on eight — to render the field-mix grid byte-identical
// to the table rendered straight from its cells, and a single-cell job
// submitted afterwards to complete from the cell cache.
func TestShardedFieldMCByteIdentical(t *testing.T) {
	const trials = 2
	var cells []experiments.FieldMCCell
	for _, pt := range experiments.FieldMCPoints() {
		for _, sch := range experiments.FieldMCSchemes() {
			c, err := experiments.FieldMCCellCtx(context.Background(), sch, pt, trials, 1)
			if err != nil {
				t.Fatalf("fieldmc cell %s @ %s: %v", sch, pt, err)
			}
			cells = append(cells, c)
		}
	}
	want := experiments.FieldMCTable(trials, cells)

	for _, workers := range []int{1, 8} {
		s := service.New(service.Config{Workers: workers})
		job := submitSpec(t, s, service.JobSpec{Kind: "fieldmc", Trials: trials})
		done := waitJob(t, s, job.ID, jobDone, 120*time.Second)
		wantCells := len(experiments.FieldMCPoints()) * len(experiments.FieldMCSchemes())
		if done.Progress.Total != wantCells {
			t.Fatalf("fieldmc sweep plans %d cells, want %d", done.Progress.Total, wantCells)
		}
		_, res, err := s.JobResult(job.ID)
		if err != nil || res == nil {
			t.Fatalf("fieldmc result on %d workers: %+v, %v", workers, res, err)
		}
		if res.Artifacts["fieldmc"] != want {
			t.Fatalf("fieldmc artifact on %d workers diverges from the cell-built table", workers)
		}

		cell := submitSpec(t, s, service.JobSpec{
			Kind: "fieldmc", Scheme: "cppc",
			Footprint: "word", Lifetime: "stuck", Rate: "x1", Trials: trials,
		})
		waitJob(t, s, cell.ID, jobDone, 60*time.Second)
		if m := s.Metrics(); m.CellCacheHits == 0 {
			t.Fatalf("single fieldmc cell did not reuse the sweep's cell: %+v", m)
		}
		_, cres, err := s.JobResult(cell.ID)
		if err != nil || cres == nil || cres.Values["coverage_rate"] == 0 {
			t.Fatalf("fieldmc cell result = %+v, %v", cres, err)
		}
		shutdown(t, s)
	}
}

// TestFieldMCSpecNormalization pins the fieldmc spec surface: cell
// coordinates are all-or-nothing and must name a real grid point.
func TestFieldMCSpecNormalization(t *testing.T) {
	s := service.New(service.Config{Workers: 1})
	defer shutdown(t, s)

	bad := []service.JobSpec{
		{Kind: "fieldmc", Scheme: "cppc"},                                                   // partial coords
		{Kind: "fieldmc", Footprint: "word", Lifetime: "stuck", Rate: "x1"},                 // no scheme
		{Kind: "fieldmc", Scheme: "dram", Footprint: "word", Lifetime: "stuck", Rate: "x1"}, // bad scheme
		{Kind: "fieldmc", Scheme: "cppc", Footprint: "blob", Lifetime: "stuck", Rate: "x1"}, // bad footprint
		{Kind: "fieldmc", Scheme: "cppc", Footprint: "word", Lifetime: "stuck", Rate: "x9"}, // bad rate
		{Kind: "fieldmc", Scheme: "cppc", Footprint: "word", Lifetime: "stuck", Rate: "x1", Sweep: true},
	}
	for _, spec := range bad {
		if _, err := s.Submit(spec); err == nil {
			t.Errorf("spec %+v accepted, want rejection", spec)
		}
	}
}

// TestShardedSilentSweepByteIdentical requires the silent-store sweep —
// sharded on one worker and on eight — to render the Sec. 7 table
// byte-identical to the table rendered from sequential silent cells.
// Silent is a rendering choice, not a cell coordinate: a silent sweep
// after the plain one (one worker), or a plain sweep after the silent
// one (eight), executes no cell, and a plain point and a silent point
// both complete from the sweep's cells.
func TestShardedSilentSweepByteIdentical(t *testing.T) {
	budget := experiments.Budget{Warmup: tinyWarmup, Measure: tinyMeasure, Seed: 1}
	prof, ok := trace.ProfileByName("gzip")
	if !ok {
		t.Fatal("gzip profile missing")
	}
	pts := experiments.Section7Points()
	runs := make([]experiments.MulticoreRun, 0, len(pts))
	for _, pt := range pts {
		r, err := experiments.MulticoreCellCtx(context.Background(), prof, pt.Cores, pt.SharedFrac, true, budget)
		if err != nil {
			t.Fatalf("sequential silent cell %+v: %v", pt, err)
		}
		runs = append(runs, r)
	}
	want := experiments.Section7Table(runs)

	sweep := func(s *service.Service, silent bool) (string, bool) {
		t.Helper()
		job := submitSpec(t, s, service.JobSpec{
			Kind: "multicore", Sweep: true, Silent: silent, Warmup: tinyWarmup, Measure: tinyMeasure,
		})
		done := waitJob(t, s, job.ID, jobDone, 120*time.Second)
		_, res, err := s.JobResult(job.ID)
		if err != nil || res == nil {
			t.Fatalf("silent=%v sweep result: %+v, %v", silent, res, err)
		}
		return res.Artifacts["sec7"], done.CacheHit
	}
	for _, workers := range []int{1, 8} {
		s := service.New(service.Config{Workers: workers})
		// The silent sweep runs second on one worker, first on eight.
		silentFirst := workers == 8
		table, _ := sweep(s, silentFirst)
		executed := s.Metrics().CellsExecuted
		if executed != len(pts) {
			t.Errorf("first sweep executed %d cells, want %d", executed, len(pts))
		}
		again, hit := sweep(s, !silentFirst)
		if !hit || s.Metrics().CellsExecuted != executed {
			t.Errorf("second sweep on %d workers: cache hit %v, %d cells executed, want a hit from the first sweep's %d cells",
				workers, hit, s.Metrics().CellsExecuted, executed)
		}
		if !silentFirst {
			table = again
		}
		if table != want {
			t.Fatalf("silent sweep on %d workers diverges from the sequential table:\n%s\nwant:\n%s", workers, table, want)
		}
		if workers == 1 {
			for _, silent := range []bool{false, true} {
				pt := submitSpec(t, s, service.JobSpec{
					Kind: "multicore", Cores: 8, SharedFrac: 0.6, Silent: silent,
					Warmup: tinyWarmup, Measure: tinyMeasure,
				})
				if !pt.CacheHit || pt.State != service.StateDone {
					t.Errorf("silent=%v point did not complete from the sweep's cells: %+v", silent, pt)
				}
			}
			if n := s.Metrics().CellsExecuted; n != executed {
				t.Errorf("points executed %d cells, want 0", n-executed)
			}
		}
		shutdown(t, s)
	}
}

// TestSilentSpecNormalization: the silent knob belongs to multicore jobs
// only — on any other kind it is normalized away, so the spellings share
// one cache identity.
func TestSilentSpecNormalization(t *testing.T) {
	s := service.New(service.Config{Workers: 1})
	defer shutdown(t, s)

	plain, err := s.Submit(service.JobSpec{Kind: "l3", Warmup: tinyWarmup, Measure: tinyMeasure})
	if err != nil {
		t.Fatal(err)
	}
	silent, err := s.Submit(service.JobSpec{Kind: "l3", Silent: true, Warmup: tinyWarmup, Measure: tinyMeasure})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Hash != silent.Hash {
		t.Errorf("silent normalized into the l3 hash: %s vs %s", plain.Hash, silent.Hash)
	}
	waitJob(t, s, plain.ID, jobDone, 120*time.Second)
	waitJob(t, s, silent.ID, jobDone, 120*time.Second)

	a, err := s.Submit(service.JobSpec{Kind: "multicore", Cores: 2, SharedFrac: 0.3, Warmup: tinyWarmup, Measure: tinyMeasure})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Submit(service.JobSpec{Kind: "multicore", Cores: 2, SharedFrac: 0.3, Silent: true, Warmup: tinyWarmup, Measure: tinyMeasure})
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash == b.Hash {
		t.Error("silent multicore point shares the plain point's hash")
	}
	waitJob(t, s, a.ID, jobDone, 60*time.Second)
	waitJob(t, s, b.ID, jobDone, 60*time.Second)
}
