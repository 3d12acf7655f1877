package fleet

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"cppc/internal/cellstore"
	"cppc/internal/experiments"
	"cppc/internal/service"
	"cppc/internal/trace"
)

// tinyBudget keeps per-cell work to a few milliseconds so whole suites
// finish fast even on one worker.
const tinyWarmup, tinyMeasure = 2000, 5000

// testDaemon is one in-process cppcd: service + store + fleet node +
// an HTTP server exposing the /fleet/ protocol.
type testDaemon struct {
	svc   *service.Service
	node  *Node
	store cellstore.Store
	ts    *httptest.Server
	url   string
}

// kill takes the daemon down hard, in dependency order: stop stealing,
// stop serving, drain the service. Safe to call twice.
func (d *testDaemon) kill() {
	d.node.Close()
	d.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d.svc.Shutdown(ctx) // second call reports closed; ignore
}

// startFleet brings up n daemons in a full peer mesh. Servers come up
// first so every peer URL exists before any node is built, handlers are
// mounted before any poller starts.
func startFleet(t *testing.T, n, workers int, peerTimeout, pollInterval time.Duration) []*testDaemon {
	t.Helper()
	ds := make([]*testDaemon, n)
	muxes := make([]*http.ServeMux, n)
	for i := range ds {
		muxes[i] = http.NewServeMux()
		ts := httptest.NewServer(muxes[i])
		ds[i] = &testDaemon{ts: ts, url: ts.URL}
	}
	for i, d := range ds {
		var peers []string
		for j, o := range ds {
			if j != i {
				peers = append(peers, o.url)
			}
		}
		d.store = cellstore.NewMemory(1024)
		d.svc = service.New(service.Config{Workers: workers, Store: d.store})
		d.node = New(Config{
			Self:         d.url,
			Peers:        peers,
			Local:        d.store,
			Exec:         d.svc,
			PeerTimeout:  peerTimeout,
			PollInterval: pollInterval,
		})
		d.svc.SetCoordinator(d.node)
		muxes[i].Handle("/fleet/", d.node.Handler())
	}
	for _, d := range ds {
		d.node.Start()
	}
	t.Cleanup(func() {
		for _, d := range ds {
			d.kill()
		}
	})
	return ds
}

func submit(t *testing.T, s *service.Service, spec service.JobSpec) service.Job {
	t.Helper()
	job, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("submit %+v: %v", spec, err)
	}
	return job
}

func waitDone(t *testing.T, s *service.Service, id string, timeout time.Duration) service.Job {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		job, err := s.Job(id)
		if err != nil {
			t.Fatalf("job %s: %v", id, err)
		}
		if job.State == service.StateDone {
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

// TestFleetSuiteExactlyOnce is the tentpole acceptance test: a 60-cell
// suite submitted to one of three daemons must execute each cell exactly
// once across the fleet — idle peers steal real work — and render a
// report byte-identical to the suite assembled straight from its cells.
func TestFleetSuiteExactlyOnce(t *testing.T) {
	// A long PeerTimeout keeps the local-fallback path out of the way:
	// any fallback would re-execute a cell and break the exact count.
	ds := startFleet(t, 3, 1, 15*time.Second, 5*time.Millisecond)

	budget := experiments.Budget{Warmup: tinyWarmup, Measure: tinyMeasure, Seed: 1}
	seq := experiments.NewSuite(budget)
	for _, c := range experiments.SuiteCells() {
		p, ok := trace.ProfileByName(c.Bench)
		if !ok {
			t.Fatalf("profile %s missing", c.Bench)
		}
		run, err := experiments.SimulateCtx(context.Background(), p, c.Scheme, budget)
		if err != nil {
			t.Fatalf("suite cell %s/%s: %v", c.Bench, c.Scheme, err)
		}
		seq.Add(run)
	}
	want := map[string]string{
		"fig10":  seq.Figure10(),
		"fig11":  seq.Figure11(),
		"fig12":  seq.Figure12(),
		"table2": seq.Table2String(),
		"table3": seq.Table3(),
	}

	job := submit(t, ds[0].svc, service.JobSpec{Kind: "suite", Warmup: tinyWarmup, Measure: tinyMeasure})
	done := waitDone(t, ds[0].svc, job.ID, 120*time.Second)
	if done.Progress.Total != 60 || done.Progress.Done != 60 {
		t.Fatalf("suite progress = %d/%d, want 60/60", done.Progress.Done, done.Progress.Total)
	}

	total := 0
	for i, d := range ds {
		n := d.svc.Metrics().CellsExecuted
		t.Logf("daemon %d executed %d cells, fleet stats %v", i, n, d.node.Stats())
		total += n
	}
	if total != 60 {
		t.Fatalf("fleet executed %d cells for a 60-cell suite, want exactly 60", total)
	}
	var stolen int64
	for _, d := range ds {
		stolen += d.node.Stats()["cells_stolen"]
	}
	if stolen == 0 {
		t.Fatalf("idle peers stole no cells from the loaded daemon")
	}

	_, res, err := ds[0].svc.JobResult(done.ID)
	if err != nil || res == nil {
		t.Fatalf("suite result: %+v, %v", res, err)
	}
	for name, text := range want {
		if res.Artifacts[name] != text {
			t.Fatalf("artifact %q diverges from the cell-built suite", name)
		}
	}
}

// TestFleetTwoDaemonsOneExecution pins the claim protocol's purpose: the
// same cell submitted to two daemons at once runs on exactly one of them;
// the loser serves the winner's result.
func TestFleetTwoDaemonsOneExecution(t *testing.T) {
	ds := startFleet(t, 2, 1, 15*time.Second, 5*time.Millisecond)
	spec := service.JobSpec{Kind: "simulate", Bench: "gzip", Scheme: "cppc",
		Warmup: tinyWarmup, Measure: tinyMeasure}

	a := submit(t, ds[0].svc, spec)
	b := submit(t, ds[1].svc, spec)
	ja := waitDone(t, ds[0].svc, a.ID, 60*time.Second)
	jb := waitDone(t, ds[1].svc, b.ID, 60*time.Second)

	total := ds[0].svc.Metrics().CellsExecuted + ds[1].svc.Metrics().CellsExecuted
	if total != 1 {
		t.Fatalf("fleet executed the cell %d times, want exactly once", total)
	}

	_, ra, err := ds[0].svc.JobResult(ja.ID)
	if err != nil || ra == nil {
		t.Fatalf("result on daemon A: %v", err)
	}
	_, rb, err := ds[1].svc.JobResult(jb.ID)
	if err != nil || rb == nil {
		t.Fatalf("result on daemon B: %v", err)
	}
	if ra.Artifacts["summary"] != rb.Artifacts["summary"] {
		t.Fatalf("daemons disagree on the one cell:\n%q\nvs\n%q",
			ra.Artifacts["summary"], rb.Artifacts["summary"])
	}
}

// TestFleetPeerDeathFallback kills a peer mid-suite: cells it claimed
// but never delivered must fall back to local execution on the
// submitting daemon, and the suite must still complete. A dead peer
// degrades the fleet; it never wedges it.
func TestFleetPeerDeathFallback(t *testing.T) {
	// Short PeerTimeout so abandoned claims are given up on quickly.
	ds := startFleet(t, 2, 1, 300*time.Millisecond, 10*time.Millisecond)

	job := submit(t, ds[0].svc, service.JobSpec{Kind: "suite", Warmup: tinyWarmup, Measure: tinyMeasure})

	// Let the peer get its hands dirty first, so the kill has something
	// to abandon.
	deadline := time.Now().Add(30 * time.Second)
	for ds[1].svc.Metrics().CellsExecuted == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("peer never stole a cell; fleet stats %v", ds[1].node.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	ds[1].kill()

	done := waitDone(t, ds[0].svc, job.ID, 120*time.Second)
	if done.Progress.Done != done.Progress.Total {
		t.Fatalf("suite progress = %d/%d after peer death", done.Progress.Done, done.Progress.Total)
	}
	if _, res, err := ds[0].svc.JobResult(done.ID); err != nil || res == nil || res.Artifacts["table2"] == "" {
		t.Fatalf("suite result after peer death: %+v, %v", res, err)
	}
	t.Logf("survivor executed %d cells, fleet stats %v",
		ds[0].svc.Metrics().CellsExecuted, ds[0].node.Stats())
}

// TestClaimTieBreak races two nodes claiming the same cell: every round
// must end with exactly one winner, whichever interleaving the scheduler
// produces.
func TestClaimTieBreak(t *testing.T) {
	muxA, muxB := http.NewServeMux(), http.NewServeMux()
	tsA, tsB := httptest.NewServer(muxA), httptest.NewServer(muxB)
	defer tsA.Close()
	defer tsB.Close()

	a := New(Config{Self: tsA.URL, Peers: []string{tsB.URL}, Local: cellstore.NewMemory(8)})
	b := New(Config{Self: tsB.URL, Peers: []string{tsA.URL}, Local: cellstore.NewMemory(8)})
	defer a.Close()
	defer b.Close()
	muxA.Handle("/fleet/", a.Handler())
	muxB.Handle("/fleet/", b.Handler())

	for i := 0; i < 30; i++ {
		hash := fmt.Sprintf("%064x", 7000+i)
		var aWon, bWon bool
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); aWon = a.acquire(hash) }()
		go func() { defer wg.Done(); bWon = b.acquire(hash) }()
		wg.Wait()
		if aWon == bWon {
			t.Fatalf("round %d: a=%v b=%v, want exactly one winner", i, aWon, bWon)
		}
	}
}

// fakeExec is a minimal Executor: always-idle workers, instant cells.
type fakeExec struct {
	mu   sync.Mutex
	runs int
}

func (f *fakeExec) ExecuteSpec(context.Context, service.QueuedCell) ([]byte, error) {
	f.mu.Lock()
	f.runs++
	f.mu.Unlock()
	return []byte(`{"cell":"ok"}`), nil
}
func (f *fakeExec) StealableCells(int) []service.QueuedCell { return nil }
func (f *fakeExec) LoadHint() (int, int, int)               { return 0, 0, 8 }

// fakePeer is a scripted /fleet/ server that counts claim traffic.
type fakePeer struct {
	ts *httptest.Server

	mu          sync.Mutex
	batchPosts  int      // POST /fleet/claims
	batchHashes []string // hashes seen across batch claim posts
	puts        int      // PUT /fleet/cells/{hash}
	queue       []service.QueuedCell
}

func newFakePeer(queue []service.QueuedCell) *fakePeer {
	f := &fakePeer{queue: queue}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /fleet/queue", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		cells := f.queue
		f.queue = nil // served once: a real queue drains as cells are claimed
		f.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(queueResponse{Cells: cells})
	})
	mux.HandleFunc("POST /fleet/claims", func(w http.ResponseWriter, r *http.Request) {
		var req claimBatchRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, "bad body", http.StatusBadRequest)
			return
		}
		f.mu.Lock()
		f.batchPosts++
		f.batchHashes = append(f.batchHashes, req.Hashes...)
		f.mu.Unlock()
		results := make([]claimResult, len(req.Hashes))
		for i, h := range req.Hashes {
			results[i] = claimResult{Hash: h, Granted: true, Owner: req.Owner}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(claimBatchResponse{Results: results})
	})
	mux.HandleFunc("PUT /fleet/cells/{hash}", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		f.mu.Lock()
		f.puts++
		f.mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /fleet/cells/{hash}", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "cell not here", http.StatusNotFound)
	})
	f.ts = httptest.NewServer(mux)
	return f
}

// TestStealBatchClaimsOnePostPerPeer pins the batch claim round: a steal
// batch of four cells must cost exactly one POST /fleet/claims per live
// peer, not one claim request per cell.
func TestStealBatchClaimsOnePostPerPeer(t *testing.T) {
	const batch = 4
	cells := make([]service.QueuedCell, batch)
	hashes := map[string]bool{}
	for i := range cells {
		sum := sha256.Sum256([]byte{byte(i)})
		h := hex.EncodeToString(sum[:])
		cells[i] = service.QueuedCell{Hash: h}
		hashes[h] = true
	}
	victim := newFakePeer(cells)
	defer victim.ts.Close()
	bystander := newFakePeer(nil)
	defer bystander.ts.Close()

	exec := &fakeExec{}
	n := New(Config{
		Self:         "http://stealer.invalid",
		Peers:        []string{victim.ts.URL, bystander.ts.URL},
		Local:        cellstore.NewMemory(64),
		Exec:         exec,
		PeerTimeout:  2 * time.Second,
		PollInterval: 20 * time.Millisecond,
		StealBatch:   batch,
	})
	n.Start()
	defer n.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		victim.mu.Lock()
		done := victim.puts == batch
		victim.mu.Unlock()
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stolen results never delivered: %d/%d puts", victim.puts, batch)
		}
		time.Sleep(10 * time.Millisecond)
	}

	for name, p := range map[string]*fakePeer{"victim": victim, "bystander": bystander} {
		p.mu.Lock()
		if p.batchPosts != 1 {
			t.Errorf("%s: %d batch claim posts for one steal batch, want 1", name, p.batchPosts)
		}
		if len(p.batchHashes) != batch {
			t.Errorf("%s: batch claimed %d hashes, want %d", name, len(p.batchHashes), batch)
		}
		for _, h := range p.batchHashes {
			if !hashes[h] {
				t.Errorf("%s: claimed unknown hash %s", name, h)
			}
		}
		p.mu.Unlock()
	}
	exec.mu.Lock()
	if exec.runs != batch {
		t.Errorf("executed %d cells, want %d", exec.runs, batch)
	}
	exec.mu.Unlock()
}

// TestStealRejectsMismatchedHash: a peer's queue listing is untrusted.
// A cell listed under a hash its spec does not produce must be dropped —
// nothing stored under the listed hash, nothing executed or pushed to
// the victim, the claim released — or every later job needing the
// listed cell would render the other spec's numbers.
func TestStealRejectsMismatchedHash(t *testing.T) {
	sum := sha256.Sum256([]byte("another cell"))
	listed := hex.EncodeToString(sum[:])
	spec := service.JobSpec{Kind: service.KindSimulate, Bench: "gzip", Scheme: "cppc", Warmup: tinyWarmup, Measure: tinyMeasure}
	victim := newFakePeer([]service.QueuedCell{{Hash: listed, Spec: spec}})
	defer victim.ts.Close()

	store := cellstore.NewMemory(64)
	svc := service.New(service.Config{Workers: 1, Store: store})
	defer svc.Shutdown(context.Background())
	n := New(Config{
		Self:         "http://stealer.invalid",
		Peers:        []string{victim.ts.URL},
		Local:        store,
		Exec:         svc,
		PeerTimeout:  2 * time.Second,
		PollInterval: 20 * time.Millisecond,
	})
	n.Start()
	defer n.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		st := n.Stats()
		if st["steal_errors"]+st["cells_stolen"] > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the listed cell was never stolen")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := n.Stats(); st["steal_errors"] != 1 || st["cells_stolen"] != 0 {
		t.Errorf("steal_errors=%d cells_stolen=%d, want 1 and 0", st["steal_errors"], st["cells_stolen"])
	}
	if _, ok := store.Get(listed); ok {
		t.Error("the spec's result was stored under the listed hash")
	}
	if got := svc.Metrics().CellsExecuted; got != 0 {
		t.Errorf("executed %d cells, want 0", got)
	}
	n.mu.Lock()
	_, held := n.claims[listed]
	n.mu.Unlock()
	if held {
		t.Error("claim on the listed hash not released")
	}
	victim.mu.Lock()
	defer victim.mu.Unlock()
	if victim.puts != 0 {
		t.Errorf("%d results pushed to the victim, want 0", victim.puts)
	}
}

// TestFleetAuthRejectsBadToken pins the shared-secret gate: with
// Config.Token set, /fleet/* requests without the exact token are
// rejected with 401 before reaching any handler, and a client Node
// configured with the matching token passes.
func TestFleetAuthRejectsBadToken(t *testing.T) {
	store := cellstore.NewMemory(64)
	svc := service.New(service.Config{Workers: 1, Store: store})
	defer svc.Shutdown(context.Background())
	server := New(Config{
		Self:  "http://server.invalid",
		Local: store,
		Exec:  svc,
		Token: "s3cret",
	})
	ts := httptest.NewServer(server.Handler())
	defer ts.Close()

	get := func(token string) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/fleet/queue?max=1", nil)
		if err != nil {
			t.Fatal(err)
		}
		if token != "" {
			req.Header.Set(tokenHeader, token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	for _, tc := range []struct {
		name, token string
		want        int
	}{
		{"missing token", "", http.StatusUnauthorized},
		{"wrong token", "s3cret-but-wrong", http.StatusUnauthorized},
		{"right token", "s3cret", http.StatusOK},
	} {
		if got := get(tc.token); got != tc.want {
			t.Errorf("%s: GET /fleet/queue = %d, want %d", tc.name, got, tc.want)
		}
	}
	if rejected := server.Stats()["auth_rejected"]; rejected != 2 {
		t.Errorf("auth_rejected = %d, want 2", rejected)
	}

	// A client Node carrying the matching token gets through the gate:
	// queuePeer round-trips against the authed server.
	client := New(Config{
		Self:  "http://client.invalid",
		Peers: []string{ts.URL},
		Local: cellstore.NewMemory(64),
		Exec:  svc,
		Token: "s3cret",
	})
	defer client.Close()
	if _, err := client.queuePeer(client.peers[0], 1); err != nil {
		t.Fatalf("authed client queuePeer: %v", err)
	}

	// And one with the wrong token is shut out.
	impostor := New(Config{
		Self:  "http://impostor.invalid",
		Peers: []string{ts.URL},
		Local: cellstore.NewMemory(64),
		Exec:  svc,
		Token: "wrong",
	})
	defer impostor.Close()
	if _, err := impostor.queuePeer(impostor.peers[0], 1); err == nil {
		t.Fatal("impostor queuePeer succeeded, want auth error")
	}
}

// zeros is an endless body of zero bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// TestPutCellRejectsOversizedBody: a PUT /fleet/cells body one byte past
// maxCellBytes answers 413 and stores nothing, instead of storing its
// first maxCellBytes bytes under the cell's hash.
func TestPutCellRejectsOversizedBody(t *testing.T) {
	store := cellstore.NewMemory(64)
	node := New(Config{Self: "http://self.invalid", Local: store})
	hash := hex.EncodeToString(make([]byte, sha256.Size))
	put := func(body io.Reader) int {
		rec := httptest.NewRecorder()
		node.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/fleet/cells/"+hash, body))
		return rec.Code
	}
	if code := put(io.LimitReader(zeros{}, maxCellBytes+1)); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized PUT = %d, want %d", code, http.StatusRequestEntityTooLarge)
	}
	if data, ok := store.Get(hash); ok {
		t.Fatalf("oversized PUT stored %d bytes", len(data))
	}
	if code := put(io.LimitReader(zeros{}, 16)); code != http.StatusNoContent {
		t.Errorf("16-byte PUT = %d, want %d", code, http.StatusNoContent)
	}
	if data, ok := store.Get(hash); !ok || len(data) != 16 {
		t.Errorf("16-byte PUT stored %d bytes (present %v)", len(data), ok)
	}
}
