package service

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
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
