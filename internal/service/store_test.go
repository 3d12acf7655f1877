package service_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"cppc/internal/cellstore"
	"cppc/internal/service"
)

// TestHealthzReadiness pins the readiness contract load balancers and
// supervisors rely on: 200 while serving, 503 once draining.
func TestHealthzReadiness(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	ts := httptest.NewServer(service.NewServer(svc).Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while serving = %d, want 200", resp.StatusCode)
	}

	if err := svc.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d, want 503", resp.StatusCode)
	}
}

// TestDiskWarmRestart is the restart acceptance test: a daemon restarted
// over the same data dir serves a previously computed cell as a cache
// hit, without re-executing it.
func TestDiskWarmRestart(t *testing.T) {
	dir := t.TempDir()
	newSvc := func() *service.Service {
		disk, err := cellstore.NewDisk(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		return service.New(service.Config{
			Workers: 2,
			Store:   cellstore.NewTiered(cellstore.NewMemory(64), disk),
		})
	}
	spec := service.JobSpec{Kind: "simulate", Bench: "gzip", Scheme: "cppc",
		Warmup: tinyWarmup, Measure: tinyMeasure}

	s1 := newSvc()
	job := submitSpec(t, s1, spec)
	if job.CacheHit {
		t.Fatalf("fresh cell claims a cache hit")
	}
	done := waitJob(t, s1, job.ID, jobDone, 30e9)
	_, want, err := s1.JobResult(done.ID)
	if err != nil || want == nil {
		t.Fatalf("first run result: %+v, %v", want, err)
	}
	if got := s1.Metrics().CellsExecuted; got != 1 {
		t.Fatalf("first process executed %d cells, want 1", got)
	}
	shutdown(t, s1)

	// Same data dir, fresh process: the cell must come off disk.
	s2 := newSvc()
	defer shutdown(t, s2)
	again := submitSpec(t, s2, spec)
	if !again.CacheHit || again.State != service.StateDone {
		t.Fatalf("restarted daemon re-ran the cell: %+v", again)
	}
	if got := s2.Metrics().CellsExecuted; got != 0 {
		t.Fatalf("restarted daemon executed %d cells, want 0", got)
	}
	_, got, err := s2.JobResult(again.ID)
	if err != nil || got == nil {
		t.Fatalf("restart result: %+v, %v", got, err)
	}
	if got.Artifacts["summary"] != want.Artifacts["summary"] {
		t.Fatalf("restart artifact diverges:\n%q\nvs\n%q",
			got.Artifacts["summary"], want.Artifacts["summary"])
	}
	if len(s2.Metrics().StoreTiers) != 2 {
		t.Fatalf("store tiers not surfaced in metrics: %+v", s2.Metrics().StoreTiers)
	}
}
