package service_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"cppc/internal/experiments"
	"cppc/internal/service"
)

// tinySweep is a Sec. 7 multicore sweep whose cells take milliseconds.
var tinySweep = service.JobSpec{Kind: "multicore", Sweep: true, Warmup: tinyWarmup, Measure: tinyMeasure}

// TestRunMatchesSubmitAndPoll: Run hands back the same artifacts the
// submit-and-poll path publishes for the same spec.
func TestRunMatchesSubmitAndPoll(t *testing.T) {
	polled := service.New(service.Config{Workers: 2})
	job := submitSpec(t, polled, tinySweep)
	waitJob(t, polled, job.ID, jobDone, 60*time.Second)
	_, want, err := polled.JobResult(job.ID)
	if err != nil || want == nil {
		t.Fatalf("polled result: %+v, %v", want, err)
	}
	shutdown(t, polled)

	s := service.New(service.Config{Workers: 2})
	defer shutdown(t, s)
	got, err := s.Run(context.Background(), tinySweep)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got.Kind != want.Kind || len(got.Artifacts) != len(want.Artifacts) || got.Artifacts["sec7"] != want.Artifacts["sec7"] {
		t.Fatalf("Run result diverges from the polled one:\n%+v\nwant:\n%+v", got, want)
	}
}

// TestRunRejectsInvalidSpec: an invalid spec fails with normalize's
// error and leaves no job behind.
func TestRunRejectsInvalidSpec(t *testing.T) {
	s := service.New(service.Config{Workers: 1})
	defer shutdown(t, s)
	bad := service.JobSpec{Kind: "simulate", Bench: "gzip", Scheme: "wat"}
	_, want := s.Submit(bad)
	if want == nil {
		t.Fatal("Submit accepted an unknown scheme")
	}
	if _, err := s.Run(context.Background(), bad); err == nil || err.Error() != want.Error() {
		t.Fatalf("Run error = %v, want normalize's %v", err, want)
	}
	if jobs := s.Jobs(); len(jobs) != 0 {
		t.Fatalf("invalid specs registered %d jobs", len(jobs))
	}
	if m := s.Metrics(); m.JobsSubmitted != 0 {
		t.Fatalf("invalid specs counted as submissions: %d", m.JobsSubmitted)
	}
}

// TestRunCacheHitDoesNotBlock: a spec the job cache already holds comes
// back from Run even under a context that has already ended — the hit
// never waits, so the context is never consulted.
func TestRunCacheHitDoesNotBlock(t *testing.T) {
	s := service.New(service.Config{Workers: 1})
	defer shutdown(t, s)
	first, err := s.Run(context.Background(), tinySweep)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	ended, cancel := context.WithCancel(context.Background())
	cancel()
	hit, err := s.Run(ended, tinySweep)
	if err != nil {
		t.Fatalf("cache-hit Run under an ended context: %v", err)
	}
	if hit.Artifacts["sec7"] != first.Artifacts["sec7"] {
		t.Fatal("cache hit returned a different report")
	}
	if jobs := s.Jobs(); len(jobs) != 1 {
		t.Fatalf("the hit registered a job: %d jobs, want 1", len(jobs))
	}
	if hits := s.Metrics().CacheHits; hits != 1 {
		t.Fatalf("cache_hits = %d after the hit, want 1", hits)
	}

	// A miss under the same ended context is canceled, not run.
	miss := tinySweep
	miss.Seed = 2
	if _, err := s.Run(ended, miss); !errors.Is(err, context.Canceled) {
		t.Fatalf("missing spec under an ended context: err = %v, want context.Canceled", err)
	}
}

// TestRunCancelDrainsCells cancels Run's context while its sweep is in
// flight: Run returns context.Canceled, the job ends canceled, and the
// orphaned cells drain without completing — observed once Shutdown has
// waited for every worker to exit.
func TestRunCancelDrainsCells(t *testing.T) {
	s := service.New(service.Config{Workers: 1})

	// Default-budget L3 cells run for seconds each, so the cancel lands
	// while the first is in flight and three are queued.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	timer := time.AfterFunc(200*time.Millisecond, cancel)
	defer timer.Stop()
	if _, err := s.Run(ctx, service.JobSpec{Kind: "l3", Sweep: true}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run under a canceled context: err = %v, want context.Canceled", err)
	}
	if jobs := s.Jobs(); len(jobs) != 1 || jobs[0].State != service.StateCanceled {
		t.Fatalf("jobs after cancel = %+v, want one canceled job", jobs)
	}

	shutdown(t, s)
	if m := s.Metrics(); m.CellsRunning != 0 || m.CellsQueued != 0 || m.CellsCompleted != 0 {
		t.Fatalf("cells did not drain after cancel: running %d, queued %d, completed %d",
			m.CellsRunning, m.CellsQueued, m.CellsCompleted)
	}
}

// TestRunConcurrentSameSpec runs one spec from several goroutines at
// once: the jobs share every cell single-flight, each cell executes
// exactly once, and every caller gets the same report. Run it under
// -race -count=10: each job's done channel must close exactly once.
func TestRunConcurrentSameSpec(t *testing.T) {
	s := service.New(service.Config{Workers: 2})
	defer shutdown(t, s)

	const callers = 4
	results := make([]*service.Result, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := s.Run(context.Background(), tinySweep)
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, res := range results[1:] {
		if res.Artifacts["sec7"] != results[0].Artifacts["sec7"] {
			t.Fatalf("caller %d got a different report", i+1)
		}
	}
	if m, cells := s.Metrics(), len(experiments.Section7Points()); m.CellsExecuted != cells {
		t.Fatalf("%d callers executed %d cells, want the sweep's %d once each", callers, m.CellsExecuted, cells)
	}
}

// TestRunAfterEviction runs specs on a table that retains one finished
// job, so each finish evicts the job before it, possibly before that
// job's Run has read it. Every Run still returns its own spec's result:
// a miss from the job it waited on, an evicted spec through the cell
// store, a retained one from the hit's snapshot.
func TestRunAfterEviction(t *testing.T) {
	s := service.New(service.Config{Workers: 2, CacheSize: 1})
	defer shutdown(t, s)
	var specs []service.JobSpec
	for _, bench := range []string{"gzip", "mcf", "vpr", "gcc"} {
		specs = append(specs, service.JobSpec{Kind: "simulate", Bench: bench, Scheme: "cppc",
			Warmup: tinyWarmup, Measure: tinyMeasure})
	}

	first := make([]*service.Result, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec service.JobSpec) {
			defer wg.Done()
			res, err := s.Run(context.Background(), spec)
			if err != nil {
				t.Errorf("%s: %v", spec.Bench, err)
				return
			}
			first[i] = res
		}(i, spec)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, res := range first {
		if !strings.HasPrefix(res.Artifacts["summary"], specs[i].Bench+"/cppc:") {
			t.Fatalf("Run(%s) returned %q", specs[i].Bench, res.Artifacts["summary"])
		}
	}
	if jobs := s.Jobs(); len(jobs) != 1 {
		t.Fatalf("table holds %d jobs, want 1", len(jobs))
	}

	// The table now holds whichever job finished last. A pass over the
	// specs in order leaves the last spec's job, so the next pass finds
	// every spec evicted and answers it from the cell store, and a final
	// Run of the last spec hits the table.
	run := func(i int) {
		t.Helper()
		res, err := s.Run(context.Background(), specs[i])
		if err != nil {
			t.Fatalf("%s: %v", specs[i].Bench, err)
		}
		if res.Artifacts["summary"] != first[i].Artifacts["summary"] {
			t.Fatalf("%s: %q, want %q", specs[i].Bench, res.Artifacts["summary"], first[i].Artifacts["summary"])
		}
	}
	for i := range specs {
		run(i)
	}
	m0 := s.Metrics()
	for i := range specs {
		run(i)
	}
	if m := s.Metrics(); m.CacheHits != m0.CacheHits || m.CellsExecuted != m0.CellsExecuted {
		t.Fatalf("evicted specs: %d hits, %d cells executed; want both 0",
			m.CacheHits-m0.CacheHits, m.CellsExecuted-m0.CellsExecuted)
	}
	run(len(specs) - 1)
	if hits := s.Metrics().CacheHits; hits != m0.CacheHits+1 {
		t.Fatalf("retained spec: %d hits, want 1", hits-m0.CacheHits)
	}
}
