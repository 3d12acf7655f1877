package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestEventsFollowEvictedJob: an event stream follows its job, not the
// job's ID. With a one-job table and a one-second poll, the job ends and
// the job queued behind it ends and evicts it before the stream looks
// again; the stream must still end with the job's done snapshot.
func TestEventsFollowEvictedJob(t *testing.T) {
	svc := New(Config{Workers: 1, CacheSize: 1})
	defer svc.Shutdown(context.Background())
	srv := NewServer(svc)
	srv.eventPoll = time.Second
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	first, err := svc.Submit(JobSpec{Kind: KindSimulate, Bench: "gzip", Scheme: "cppc", Measure: 3_000_000})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := http.Get(ts.URL + "/jobs/" + first.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if _, err := svc.Submit(JobSpec{Kind: KindSimulate, Bench: "gzip", Scheme: "cppc", Warmup: 2_000, Measure: 5_000}); err != nil {
		t.Fatal(err)
	}

	var last Job
	sc := bufio.NewScanner(stream.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
			if err := json.Unmarshal([]byte(data), &last); err != nil {
				t.Fatalf("bad event: %v", err)
			}
		}
	}
	if last.ID != first.ID || last.State != StateDone {
		t.Fatalf("stream ended on %s in state %q, want %s done", last.ID, last.State, first.ID)
	}
}

// TestSubmitRejectsOversizedSpec: a POST /jobs body past maxSpecBytes
// answers 413 and submits nothing, even when a valid spec follows the
// padding; the same spec alone is accepted.
func TestSubmitRejectsOversizedSpec(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Shutdown(context.Background())
	h := NewServer(svc).Handler()
	post := func(body string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", strings.NewReader(body)))
		return rec.Code
	}

	spec := `{"kind":"simulate","bench":"gzip","scheme":"cppc","warmup":2000,"measure":5000}`
	if code := post(strings.Repeat(" ", maxSpecBytes) + spec); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized POST /jobs = %d, want %d", code, http.StatusRequestEntityTooLarge)
	}
	if jobs := svc.Jobs(); len(jobs) != 0 {
		t.Fatalf("oversized POST /jobs submitted %d jobs", len(jobs))
	}
	if code := post(spec); code != http.StatusAccepted {
		t.Errorf("POST /jobs = %d, want %d", code, http.StatusAccepted)
	}
}

// discardWriter is a ResponseWriter that keeps only its header map, so
// an allocation count sees only the writer's caller.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(int)             {}

// TestWriteJSONAllocs bounds what encoding a done job's snapshot costs,
// the answer to every job-table hit. It measures 4 allocs, the encoder
// and the three timestamps (7 under -race, where sync.Pool drops some of
// the JSON encoder states). An indenting encoder measured 11 (15-16
// under -race): it grew a buffer of its own from empty on every call.
func TestWriteJSONAllocs(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Shutdown(context.Background())
	spec := JobSpec{Kind: KindSimulate, Bench: "gzip", Scheme: "cppc", Warmup: 2000, Measure: 5000}
	if _, err := svc.Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	hit, err := svc.Submit(spec)
	if err != nil || !hit.CacheHit {
		t.Fatalf("resubmit: cache_hit=%v, %v", hit.CacheHit, err)
	}
	var v any = hit
	w := &discardWriter{h: http.Header{}}
	allocs := testing.AllocsPerRun(200, func() { writeJSON(w, http.StatusOK, v) })
	if allocs > 8 {
		t.Fatalf("writeJSON of a job snapshot costs %v allocs, want <= 8", allocs)
	}
}

// TestHitHandlerAllocs bounds one job-table hit through the handlers: a
// resubmitted POST /jobs plus the GET /jobs/{id}/result that follows it,
// request and recorder construction included. Both answers are encoded
// once per done job and then written as stored; re-encoding them on
// every hit cost 79 allocs (90 under -race). Concurrent first hits, which
// race to store the answers, and every later hit must answer exactly
// what writeJSON writes for the same job, and so must the stored bytes.
func TestHitHandlerAllocs(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Shutdown(context.Background())
	spec := JobSpec{Kind: KindSimulate, Bench: "gzip", Scheme: "cppc", Warmup: 2000, Measure: 5000}
	res, err := svc.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := svc.Submit(spec)
	if err != nil || !snap.CacheHit {
		t.Fatalf("resubmit: cache_hit=%v, %v", snap.CacheHit, err)
	}
	want := func(v any) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, v)
		return rec
	}
	wantHit, wantResult := want(snap), want(res)

	h := NewServer(svc).Handler()
	body := `{"kind":"simulate","bench":"gzip","scheme":"cppc","warmup":2000,"measure":5000}`
	resultPath := "/jobs/" + snap.ID + "/result"
	hit := func(post, get *httptest.ResponseRecorder) {
		h.ServeHTTP(post, httptest.NewRequest(http.MethodPost, "/jobs", strings.NewReader(body)))
		h.ServeHTTP(get, httptest.NewRequest(http.MethodGet, resultPath, nil))
	}
	// check runs on the test goroutine only.
	check := func(when string, post, get *httptest.ResponseRecorder) {
		t.Helper()
		for _, c := range []struct {
			name      string
			got, want *httptest.ResponseRecorder
		}{{"POST /jobs", post, wantHit}, {"GET " + resultPath, get, wantResult}} {
			if c.got.Code != c.want.Code || c.got.Header().Get("Content-Type") != c.want.Header().Get("Content-Type") ||
				!bytes.Equal(c.got.Body.Bytes(), c.want.Body.Bytes()) {
				t.Fatalf("%s, %s: HTTP %d %q %s, want writeJSON's HTTP %d %q %s", when, c.name,
					c.got.Code, c.got.Header().Get("Content-Type"), c.got.Body,
					c.want.Code, c.want.Header().Get("Content-Type"), c.want.Body)
			}
		}
	}

	const first = 4
	var recs [first][2]*httptest.ResponseRecorder
	var wg sync.WaitGroup
	for i := range recs {
		recs[i] = [2]*httptest.ResponseRecorder{httptest.NewRecorder(), httptest.NewRecorder()}
		wg.Add(1)
		go func(post, get *httptest.ResponseRecorder) {
			defer wg.Done()
			hit(post, get)
		}(recs[i][0], recs[i][1])
	}
	wg.Wait()
	for _, r := range recs {
		check("first hits", r[0], r[1])
	}
	svc.mu.Lock()
	job := svc.jobs[snap.ID]
	stored := [][]byte{job.hitJSON, job.resultJSON}
	svc.mu.Unlock()
	for i, w := range []*httptest.ResponseRecorder{wantHit, wantResult} {
		if !bytes.Equal(stored[i], w.Body.Bytes()) {
			t.Fatalf("stored answer %d = %s, want writeJSON's %s", i, stored[i], w.Body)
		}
	}

	var post, get *httptest.ResponseRecorder
	allocs := testing.AllocsPerRun(100, func() {
		post, get = httptest.NewRecorder(), httptest.NewRecorder()
		hit(post, get)
	})
	check("later hits", post, get)
	if allocs > 60 {
		t.Fatalf("a job-table hit through the handlers costs %v allocs, want <= 60", allocs)
	}
}

// TestNewServerGCPercent: with GOGC unset, NewServer sets the process's
// GC percent to gcPercent; with GOGC set, the percent the runtime took
// from it stays. Each case restores the percent it found.
func TestNewServerGCPercent(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Shutdown(context.Background())
	for _, tc := range []struct {
		name, gogc  string // gogc "" leaves GOGC unset
		start, want int
	}{
		{name: "unset", start: 100, want: gcPercent},
		{name: "GOGC=150", gogc: "150", start: 150, want: 150},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prev := debug.SetGCPercent(tc.start)
			t.Cleanup(func() { debug.SetGCPercent(prev) })
			t.Setenv("GOGC", tc.gogc)
			if tc.gogc == "" {
				os.Unsetenv("GOGC")
			}
			NewServer(svc)
			if got := debug.SetGCPercent(tc.want); got != tc.want {
				t.Fatalf("GC percent after NewServer = %d, want %d", got, tc.want)
			}
		})
	}
}

// TestMetricsGC: /metrics reports the GC percent in force (-1 for off),
// the collections since start (a forced one counts) and a nonzero heap
// goal.
func TestMetricsGC(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Shutdown(context.Background())
	h := NewServer(svc).Handler()
	get := func() Metrics {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		var m Metrics
		if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	prev := debug.SetGCPercent(100)
	defer debug.SetGCPercent(prev)
	for _, pct := range []int{123, -1} {
		debug.SetGCPercent(pct)
		first := get()
		runtime.GC()
		m := get()
		if m.GCPercent != int64(pct) {
			t.Errorf("gc_percent = %d, want %d", m.GCPercent, pct)
		}
		if m.GCCycles <= first.GCCycles {
			t.Errorf("gc_percent %d: gc_cycles %d -> %d across a forced collection, want an increase", pct, first.GCCycles, m.GCCycles)
		}
		if m.HeapGoalBytes == 0 {
			t.Errorf("gc_percent %d: heap_goal_bytes = 0", pct)
		}
	}
}
