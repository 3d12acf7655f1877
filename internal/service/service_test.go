package service_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"cppc/internal/service"
)

// --- HTTP helpers -------------------------------------------------------

func postJob(t *testing.T, base string, spec string) (service.Job, int) {
	t.Helper()
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewBufferString(spec))
	if err != nil {
		t.Fatalf("POST /jobs: %v", err)
	}
	defer resp.Body.Close()
	var job service.Job
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
			t.Fatalf("decode job: %v", err)
		}
	}
	return job, resp.StatusCode
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func waitForState(t *testing.T, base, id string, want func(service.Job) bool, timeout time.Duration) service.Job {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		var job service.Job
		if code := getJSON(t, base+"/jobs/"+id, &job); code != http.StatusOK {
			t.Fatalf("GET /jobs/%s: status %d", id, code)
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
		time.Sleep(50 * time.Millisecond)
	}
}

// --- The acceptance-path end-to-end test --------------------------------

// TestServerEndToEnd drives the whole daemon over HTTP: submit the
// quick-budget Fig. 10 matrix, poll it to completion, resubmit the
// identical spec and observe a content-addressed cache hit via /metrics,
// cancel an in-flight default-budget job (watching it over the SSE
// stream), and shut the server down gracefully.
func TestServerEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick-budget suite")
	}
	svc := service.New(service.Config{Workers: 2, QueueSize: 8, CacheSize: 16})
	ts := httptest.NewServer(service.NewServer(svc).Handler())
	defer ts.Close()

	const fig10Spec = `{"kind":"suite","budget":"quick","figures":["fig10"]}`

	// Submit the quick-budget Figure 10 matrix and poll to completion.
	job, code := postJob(t, ts.URL, fig10Spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	if job.State != service.StateQueued || job.CacheHit {
		t.Fatalf("fresh submit: state %s cacheHit %v", job.State, job.CacheHit)
	}
	done := waitForState(t, ts.URL, job.ID,
		func(j service.Job) bool { return j.State == service.StateDone }, 8*time.Minute)
	if done.Progress.Done != done.Progress.Total || done.Progress.Total == 0 {
		t.Fatalf("done job progress %d/%d", done.Progress.Done, done.Progress.Total)
	}

	var res service.Result
	if code := getJSON(t, ts.URL+"/jobs/"+job.ID+"/result", &res); code != http.StatusOK {
		t.Fatalf("result: status %d", code)
	}
	fig10, ok := res.Artifacts["fig10"]
	if !ok || !strings.Contains(fig10, "Figure 10") || !strings.Contains(fig10, "average") {
		t.Fatalf("fig10 artifact missing or malformed:\n%s", fig10)
	}
	if _, ok := res.Artifacts["fig11"]; ok {
		t.Fatalf("unrequested artifact rendered")
	}

	var m0 service.Metrics
	getJSON(t, ts.URL+"/metrics", &m0)
	if m0.CacheHits != 0 || m0.JobsCompleted != 1 {
		t.Fatalf("metrics before resubmit: hits %d completed %d", m0.CacheHits, m0.JobsCompleted)
	}

	// Resubmit the identical spec: immediate completion from the cache.
	hit, code := postJob(t, ts.URL, fig10Spec)
	if code != http.StatusOK {
		t.Fatalf("resubmit: status %d", code)
	}
	if !hit.CacheHit || hit.State != service.StateDone {
		t.Fatalf("resubmit: cacheHit %v state %s", hit.CacheHit, hit.State)
	}
	if hit.Hash != done.Hash {
		t.Fatalf("canonical hash changed across submissions: %s vs %s", hit.Hash, done.Hash)
	}
	var hitRes service.Result
	if code := getJSON(t, ts.URL+"/jobs/"+hit.ID+"/result", &hitRes); code != http.StatusOK {
		t.Fatalf("cached result: status %d", code)
	}
	if hitRes.Artifacts["fig10"] != fig10 {
		t.Fatalf("cached result differs from original")
	}
	var m1 service.Metrics
	getJSON(t, ts.URL+"/metrics", &m1)
	if m1.CacheHits != 1 {
		t.Fatalf("metrics after resubmit: cache_hits = %d, want 1", m1.CacheHits)
	}
	if m1.CacheHitRate <= 0 {
		t.Fatalf("cache hit rate not reported: %v", m1.CacheHitRate)
	}

	// Cancel an in-flight job: a default-budget suite runs for minutes,
	// so it is reliably mid-flight when the DELETE lands.
	long, code := postJob(t, ts.URL, `{"kind":"suite","budget":"default"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit long job: status %d", code)
	}
	waitForState(t, ts.URL, long.ID,
		func(j service.Job) bool { return j.State == service.StateRunning }, time.Minute)

	// Watch it over the SSE stream while canceling it.
	stream, err := http.Get(ts.URL + "/jobs/" + long.ID + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content-type %q", ct)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+long.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	resp.Body.Close()

	canceled := waitForState(t, ts.URL, long.ID,
		func(j service.Job) bool { return j.State == service.StateCanceled }, time.Minute)
	if canceled.Error == "" {
		t.Fatalf("canceled job has no error note")
	}

	// The stream must terminate on its own with a final canceled snapshot.
	var last service.Job
	sc := bufio.NewScanner(stream.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	events := 0
	for sc.Scan() {
		line := sc.Text()
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			events++
			if err := json.Unmarshal([]byte(data), &last); err != nil {
				t.Fatalf("bad SSE payload: %v", err)
			}
		}
	}
	if events == 0 || last.State != service.StateCanceled {
		t.Fatalf("SSE stream: %d events, final state %q", events, last.State)
	}

	var m2 service.Metrics
	getJSON(t, ts.URL+"/metrics", &m2)
	if m2.JobsCanceled != 1 {
		t.Fatalf("metrics: jobs_canceled = %d, want 1", m2.JobsCanceled)
	}
	if m2.RunMaxMs <= 0 || m2.RunMeanMs <= 0 {
		t.Fatalf("metrics: latency not reported: %+v", m2)
	}

	// Graceful shutdown: nothing is running, so the drain is immediate.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	// Submissions after shutdown are refused.
	if _, code := postJob(t, ts.URL, fig10Spec); code != http.StatusServiceUnavailable {
		t.Fatalf("submit after shutdown: status %d", code)
	}
}

// --- Canonical hashing through the API ----------------------------------

// TestCanonicalSpecHash asserts that two differently-spelled specs for
// the same work share one cache entry, and that result-changing fields
// break the sharing.
func TestCanonicalSpecHash(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	defer svc.Shutdown(context.Background())

	submitWait := func(spec service.JobSpec) service.Job {
		t.Helper()
		job, err := svc.Submit(spec)
		if err != nil {
			t.Fatalf("submit %+v: %v", spec, err)
		}
		deadline := time.Now().Add(time.Minute)
		for !time.Now().After(deadline) {
			j, err := svc.Job(job.ID)
			if err != nil {
				t.Fatal(err)
			}
			if j.State == service.StateDone {
				return j
			}
			if j.State == service.StateFailed || j.State == service.StateCanceled {
				t.Fatalf("job ended %s: %s", j.State, j.Error)
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Fatalf("job %s did not finish", job.ID)
		return service.Job{}
	}

	base := service.JobSpec{Kind: "simulate", Bench: "gzip", Scheme: "cppc", Warmup: 1000, Measure: 2000}
	first := submitWait(base)
	if first.CacheHit {
		t.Fatalf("first run claims a cache hit")
	}

	// Equivalent spelling: explicit defaults, plus the retired
	// "parallel" field an old client may still send — the decoder
	// ignores it, so the spec still hits the cache.
	ts := httptest.NewServer(service.NewServer(svc).Handler())
	defer ts.Close()
	second, code := postJob(t, ts.URL,
		`{"kind":"simulate","bench":"gzip","scheme":"cppc","warmup":1000,"measure":2000,"seed":1,"parallel":3}`)
	if code != http.StatusOK || !second.CacheHit {
		t.Fatalf("equivalent spec missed the cache: status %d (hash %s vs %s)", code, second.Hash, first.Hash)
	}

	// A different seed computes different numbers: no sharing.
	other := base
	other.Seed = 2
	third := submitWait(other)
	if third.CacheHit {
		t.Fatalf("seed change still hit the cache")
	}

	// Bad specs are rejected up front.
	for _, bad := range []service.JobSpec{
		{Kind: "nope"},
		{Kind: "simulate", Bench: "gzip", Scheme: "wat"},
		{Kind: "simulate", Bench: "nope", Scheme: "cppc"},
		{Kind: "suite", Figures: []string{"fig99"}},
		{Kind: "suite", Bench: "gzip"},
		{Kind: "multicore", Bench: "nope"},
		{Kind: "multicore", Cores: 64},
		{Kind: "multicore", SharedFrac: 1.5},
		{Kind: "multicore", Scheme: "cppc"},
	} {
		if _, err := svc.Submit(bad); err == nil {
			t.Fatalf("bad spec accepted: %+v", bad)
		}
	}
}

// TestMulticoreJob submits a small timed Sec. 7 cell and checks the
// reported values, plus cache-sharing between equivalent spellings
// (defaulted vs. explicit bench/cores).
func TestMulticoreJob(t *testing.T) {
	if testing.Short() {
		t.Skip("timed multicore simulation")
	}
	svc := service.New(service.Config{Workers: 1})
	defer svc.Shutdown(context.Background())

	spec := service.JobSpec{Kind: "multicore", Cores: 2, SharedFrac: 0.5, Warmup: 2000, Measure: 5000}
	job, err := svc.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		j, err := svc.Job(job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if j.State == service.StateDone {
			break
		}
		if j.State == service.StateFailed || j.State == service.StateCanceled {
			t.Fatalf("job ended %s: %s", j.State, j.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("multicore job stuck in %s", j.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	_, res, err := svc.JobResult(job.ID)
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	if res.Values["cpi"] <= 0 || res.Values["cycles"] <= 0 {
		t.Fatalf("degenerate multicore values: %v", res.Values)
	}
	if res.Values["instructions"] != 2*5000 {
		t.Fatalf("expected %d instructions, got %v", 2*5000, res.Values["instructions"])
	}
	if !strings.Contains(res.Artifacts["summary"], "x2 cores") {
		t.Fatalf("summary malformed: %q", res.Artifacts["summary"])
	}

	// Defaulted bench ("gzip") must share a cache entry with the explicit
	// spelling.
	explicit := spec
	explicit.Bench = "gzip"
	explicit.Seed = 1
	j2, err := svc.Submit(explicit)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if !j2.CacheHit {
		t.Fatalf("equivalent multicore spec missed the cache")
	}
}

// TestL3Job submits a small timed Sec. 7 L3 cell and checks the reported
// values, plus cache-sharing between the defaulted and explicit bench.
func TestL3Job(t *testing.T) {
	if testing.Short() {
		t.Skip("timed three-level simulation")
	}
	svc := service.New(service.Config{Workers: 1})
	defer svc.Shutdown(context.Background())

	spec := service.JobSpec{Kind: "l3", Warmup: 2000, Measure: 5000}
	job, err := svc.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		j, err := svc.Job(job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if j.State == service.StateDone {
			break
		}
		if j.State == service.StateFailed || j.State == service.StateCanceled {
			t.Fatalf("job ended %s: %s", j.State, j.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("l3 job stuck in %s", j.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	_, res, err := svc.JobResult(job.ID)
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	for _, key := range []string{"cpi_parity", "cpi_cppc_l3", "cpi_cppc_l2"} {
		if res.Values[key] <= 0 {
			t.Fatalf("degenerate L3 values (%s): %v", key, res.Values)
		}
	}
	if !strings.Contains(res.Artifacts["summary"], "mcf L3 study") {
		t.Fatalf("summary malformed: %q", res.Artifacts["summary"])
	}

	// Defaulted bench ("mcf") must share a cache entry with the explicit
	// spelling.
	explicit := spec
	explicit.Bench = "mcf"
	explicit.Seed = 1
	j2, err := svc.Submit(explicit)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if !j2.CacheHit {
		t.Fatalf("equivalent l3 spec missed the cache")
	}

	// Scheme is meaningless for l3 jobs and must be rejected.
	if _, err := svc.Submit(service.JobSpec{Kind: "l3", Scheme: "cppc"}); err == nil {
		t.Fatal("l3 job with a scheme accepted")
	}
}

// --- Queue bounds, queued-job cancellation, forced drain ----------------

func TestQueueBoundsAndForcedShutdown(t *testing.T) {
	svc := service.New(service.Config{Workers: 1, QueueSize: 1})

	// A job long enough to still be running when the test ends.
	long := service.JobSpec{Kind: "simulate", Bench: "mcf", Scheme: "secded",
		Warmup: 0, Measure: 500_000_000}

	first, err := svc.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the single worker has it, so queue occupancy is exact.
	deadline := time.Now().Add(time.Minute)
	for {
		j, _ := svc.Job(first.ID)
		if j.State == service.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("first job never started")
		}
		time.Sleep(5 * time.Millisecond)
	}

	queued := service.JobSpec{Kind: "simulate", Bench: "gcc", Scheme: "secded",
		Warmup: 0, Measure: 500_000_000}
	second, err := svc.Submit(queued)
	if err != nil {
		t.Fatalf("second submit should queue: %v", err)
	}
	third := service.JobSpec{Kind: "simulate", Bench: "vpr", Scheme: "secded",
		Warmup: 0, Measure: 500_000_000}
	if _, err := svc.Submit(third); !errors.Is(err, service.ErrQueueFull) {
		t.Fatalf("third submit: err = %v, want ErrQueueFull", err)
	}

	// Canceling the queued job is immediate and the worker later skips it.
	j, err := svc.Cancel(second.ID)
	if err != nil || j.State != service.StateCanceled {
		t.Fatalf("cancel queued: %v state %s", err, j.State)
	}

	// Forced drain: the context expires long before the 500M-instruction
	// job finishes, so Shutdown cancels it and reports the deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := svc.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced shutdown: err = %v, want DeadlineExceeded", err)
	}
	j, _ = svc.Job(first.ID)
	if j.State != service.StateCanceled {
		t.Fatalf("running job after forced drain: %s", j.State)
	}
	m := svc.Metrics()
	if m.BusyWorkers != 0 || m.JobsCanceled != 2 {
		t.Fatalf("after shutdown: busy %d canceled %d", m.BusyWorkers, m.JobsCanceled)
	}
}

// --- The job table is the job cache -------------------------------------

// tinySim is a simulate job that finishes in milliseconds; seed keys it
// apart from the others.
func tinySim(seed int64) service.JobSpec {
	return service.JobSpec{Kind: "simulate", Bench: "gzip", Scheme: "cppc",
		Warmup: tinyWarmup, Measure: tinyMeasure, Seed: seed}
}

// TestJobTableEviction: the table keeps every queued or running job and
// at most CacheSize finished ones, evicting the oldest finished job
// first. An evicted ID is gone for good, while its spec still comes back
// done from the cell store, as a hit that executes nothing.
func TestJobTableEviction(t *testing.T) {
	s := service.New(service.Config{Workers: 2, CacheSize: 3})
	defer shutdown(t, s)

	// Holds one worker for the whole test.
	long := submitSpec(t, s, service.JobSpec{Kind: "simulate", Bench: "mcf", Scheme: "secded",
		Warmup: 0, Measure: 500_000_000})
	defer s.Cancel(long.ID)
	waitJob(t, s, long.ID, func(j service.Job) bool { return j.State == service.StateRunning }, time.Minute)

	var done []service.Job
	for seed := int64(1); seed <= 5; seed++ {
		job := submitSpec(t, s, tinySim(seed))
		done = append(done, waitJob(t, s, job.ID, jobDone, 30*time.Second))
	}
	listed := func() []string {
		var ids []string
		for _, j := range s.Jobs() {
			ids = append(ids, j.ID)
		}
		return ids
	}
	want := []string{long.ID, done[2].ID, done[3].ID, done[4].ID}
	if got := listed(); !slices.Equal(got, want) {
		t.Fatalf("retained jobs = %v, want the running job and the last three finished %v", got, want)
	}
	for _, j := range done[:2] {
		if _, err := s.Job(j.ID); !errors.Is(err, service.ErrNotFound) {
			t.Fatalf("evicted job %s: err = %v, want ErrNotFound", j.ID, err)
		}
		if _, _, err := s.JobResult(j.ID); !errors.Is(err, service.ErrNotFound) {
			t.Fatalf("evicted job %s result: err = %v, want ErrNotFound", j.ID, err)
		}
	}
	if m := s.Metrics(); m.CacheEntries != 3 {
		t.Fatalf("cache_entries = %d, want 3", m.CacheEntries)
	}

	// A retained spec is answered by its finished job.
	hit := submitSpec(t, s, tinySim(5))
	if !hit.CacheHit || hit.State != service.StateDone || hit.ID != done[4].ID {
		t.Fatalf("retained spec = %+v, want a hit on %s", hit, done[4].ID)
	}
	if got := listed(); !slices.Equal(got, want) {
		t.Fatalf("a hit changed the table: %v, want %v", got, want)
	}

	// An evicted spec comes back done from the cell store and becomes the
	// newest finished job, evicting the oldest.
	executed := s.Metrics().CellsExecuted
	again := submitSpec(t, s, tinySim(1))
	if !again.CacheHit || again.State != service.StateDone || again.ID == done[0].ID {
		t.Fatalf("evicted spec = %+v, want a new done job answered from the cell store", again)
	}
	if got := s.Metrics().CellsExecuted; got != executed {
		t.Fatalf("evicted spec executed %d cells, want 0", got-executed)
	}
	_, res, err := s.JobResult(again.ID)
	if err != nil || res == nil || res.Values["cpi"] <= 0 {
		t.Fatalf("evicted spec result = %+v, %v", res, err)
	}
	want = []string{long.ID, done[3].ID, done[4].ID, again.ID}
	if got := listed(); !slices.Equal(got, want) {
		t.Fatalf("retained jobs = %v, want %v", got, want)
	}

	if j, err := s.Cancel(long.ID); err != nil || j.State != service.StateCanceled {
		t.Fatalf("cancel running job: %v, state %s", err, j.State)
	}
	want = []string{long.ID, done[4].ID, again.ID}
	if got := listed(); !slices.Equal(got, want) {
		t.Fatalf("retained jobs after the running job ended = %v, want %v", got, want)
	}
}

// TestResubmitRecordsNothing resubmits one finished spec 20k times: each
// hit answers with the finished job's ID, the table does not grow, and
// the live heap stays put.
func TestResubmitRecordsNothing(t *testing.T) {
	s := service.New(service.Config{Workers: 1})
	defer shutdown(t, s)
	first := submitSpec(t, s, tinySim(1))
	waitJob(t, s, first.ID, jobDone, 30*time.Second)
	jobs := len(s.Jobs())

	// Two collections: the first only moves sync.Pool contents (the
	// simulator's arenas) to the victim cache, the second frees them.
	liveHeap := func() int64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	var hit service.Job
	before := liveHeap()
	for i := 0; i < 20_000; i++ {
		var err error
		if hit, err = s.Submit(tinySim(1)); err != nil || !hit.CacheHit {
			t.Fatalf("resubmission %d = %+v, %v; want a hit", i, hit, err)
		}
	}
	if grew := liveHeap() - before; grew >= 1<<20 {
		t.Fatalf("20k hits grew the live heap by %d bytes, want < 1 MB", grew)
	}
	if n := len(s.Jobs()); n != jobs {
		t.Fatalf("20k hits grew the table from %d to %d jobs", jobs, n)
	}
	if hit.ID != first.ID {
		t.Fatalf("hit answered as %s, want the finished job %s", hit.ID, first.ID)
	}
}

// TestSubmitHitAllocs bounds a job-table hit's allocations: normalize,
// the spec hash and the snapshot, with no plan and no registration. A
// hit measures 3 (8 when every hit registered a job and planned it);
// under -race it measures 4, because the race detector makes sync.Pool
// drop some of the JSON encoder states the hash reuses.
func TestSubmitHitAllocs(t *testing.T) {
	s := service.New(service.Config{Workers: 1})
	defer shutdown(t, s)
	spec := tinySim(1)
	first := submitSpec(t, s, spec)
	waitJob(t, s, first.ID, jobDone, 30*time.Second)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := s.Submit(spec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Fatalf("a job-table hit costs %v allocs, want <= 4", allocs)
	}
}
