package main

// The two daemon workloads: an in-process cppcd (service.New +
// service.NewServer) on a loopback listener, driven over HTTP by
// cfg.procs closed-loop clients. A client sends its next job only after
// the previous one's result is read. A round is a fixed number of jobs
// per client on a daemon of its own: the daemon keeps every submitted
// job in its job table, so a run's peak memory is one round's, however
// fast the jobs go.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"cppc/internal/cellstore"
	"cppc/internal/experiments"
	"cppc/internal/service"
	"cppc/internal/trace"
)

const (
	// pollEvery is the client's status poll interval while a cold job
	// runs. Sub-millisecond polling made the cold tail swing with the
	// HTTP load the polls themselves add.
	pollEvery = time.Millisecond
	// poolSize is how many distinct finished jobs daemon-hit resubmits;
	// it stays well inside the job cache (256 entries).
	poolSize = 32
	// verifyEvery: every verifyEvery-th cold job of a client is checked
	// against a direct experiments.SimulateCtx after the timed phase.
	verifyEvery = 50
	// goldenColds is how many cold jobs per client the golden digest
	// covers.
	goldenColds = 20
	// poolStream keys the pool's job seeds apart from the clients'.
	poolStream = 1 << 10
	// coldPerRound and hitPerRound are the jobs each client sends in one
	// round. With two clients, a round leaves at least ten jobs beyond
	// its 98th percentile, where op_tail_ms reads.
	coldPerRound = 500
	hitPerRound  = 10000
)

var (
	coldBenches = []string{"gzip", "mcf", "crafty", "vortex", "swim"}
	coldSchemes = []string{"parity-1d", "cppc", "secded", "parity-2d"}
)

// coldSpec is job i of a round seed's stream: a small simulation on a
// seed no other job uses, so it misses the job cache, the cell store and
// the process-wide trace memo. Twenty consecutive jobs cover every
// (benchmark, scheme) pair once.
func coldSpec(cfg config, seed int64, stream, i int) service.JobSpec {
	k := (i + 10*stream) % (len(coldBenches) * len(coldSchemes))
	return service.JobSpec{
		Kind:    service.KindSimulate,
		Bench:   coldBenches[k%len(coldBenches)],
		Scheme:  coldSchemes[k/len(coldBenches)],
		Warmup:  cfg.scaled(20_000),
		Measure: cfg.scaled(60_000),
		Seed:    jobSeed(seed, stream, i),
	}
}

// jobSeed derives a distinct positive seed per (run seed, stream, job)
// with a splitmix64 finalizer.
func jobSeed(seed int64, stream, i int) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream)<<32 + uint64(i)
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x>>1) | 1
}

// daemon is one running in-process daemon plus the HTTP client that
// drives it.
type daemon struct {
	cfg    config
	hit    bool
	tr     *tracer
	svc    *service.Service
	srv    *http.Server
	served chan error
	base   string
	client *http.Client

	pool       []jobRec // daemon-hit: the finished jobs clients resubmit
	poolDigest string
}

type jobRec struct {
	spec service.JobSpec
	res  service.Result
}

// startDaemon brings a daemon up until /healthz answers 200 and, for
// daemon-hit, fills the job cache with the pool. With a tracer, the cell
// store and the HTTP handler are wrapped.
func startDaemon(ctx context.Context, cfg config, hit bool, tr *tracer) (*daemon, error) {
	scfg := service.Config{Workers: cfg.procs}
	if tr != nil {
		scfg.Store = &tracedStore{Store: cellstore.NewMemory(0), tr: tr}
	}
	svc := service.New(scfg)
	var h http.Handler = service.NewServer(svc).Handler()
	if tr != nil {
		h = tr.handler(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = svc.Shutdown(ctx) // nothing was submitted: returns at once
		return nil, err
	}
	d := &daemon{
		cfg: cfg, hit: hit, tr: tr, svc: svc,
		srv:    &http.Server{Handler: h},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: cfg.procs,
			MaxConnsPerHost:     cfg.procs,
		}},
	}
	go func() { d.served <- d.srv.Serve(ln) }()
	if err := d.ready(ctx); err != nil {
		d.close()
		return nil, err
	}
	if hit {
		if err := d.fillPool(ctx); err != nil {
			d.close()
			return nil, err
		}
	}
	return d, nil
}

func (d *daemon) ready(ctx context.Context) error {
	for {
		code, err := d.call(ctx, http.MethodGet, "/healthz", nil, nil, 0, 0)
		if err == nil && code == http.StatusOK {
			return nil
		}
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		time.Sleep(pollEvery)
	}
}

// fillPool submits the pool's jobs, waits for all of them and keeps
// their results.
func (d *daemon) fillPool(ctx context.Context) error {
	ids := make([]string, poolSize)
	d.pool = make([]jobRec, poolSize)
	for i := range d.pool {
		d.pool[i].spec = coldSpec(d.cfg, d.cfg.seed, poolStream, i)
		body, err := json.Marshal(d.pool[i].spec)
		if err != nil {
			return err
		}
		var job service.Job
		if _, err := d.call(ctx, http.MethodPost, "/jobs", body, &job, 0, 0); err != nil {
			return fmt.Errorf("pool submit: %w", err)
		}
		ids[i] = job.ID
	}
	h := sha256.New()
	for i, id := range ids {
		res, _, err := d.await(ctx, id, 0, 0)
		if err != nil {
			return fmt.Errorf("pool job %s: %w", id, err)
		}
		d.pool[i].res = res
		h.Write(resultDigest(d.pool[i].spec, res))
	}
	d.poolDigest = hex.EncodeToString(h.Sum(nil))
	return nil
}

// close stops the listener, drains the service and drops idle client
// connections; every goroutine the daemon started has exited when it
// returns.
func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if serr := d.svc.Shutdown(ctx); serr != nil && err == nil {
		err = serr
	}
	d.client.CloseIdleConnections()
	return err
}

// call does one HTTP request and decodes a JSON answer into out. For a
// job's calls (req > 0) under a tracer, the round trip is an http.request
// span under the job's span, and the headers let the handler wrapper
// link its span to it.
func (d *daemon) call(ctx context.Context, method, path string, body []byte, out any, parent, req int64) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	hreq, err := http.NewRequestWithContext(ctx, method, d.base+path, rd)
	if err != nil {
		return 0, err
	}
	var id int64
	if d.tr != nil && req > 0 {
		id = d.tr.newID()
		hreq.Header.Set(spanHeader, strconv.FormatInt(id, 10))
		hreq.Header.Set(reqHeader, strconv.FormatInt(req, 10))
	}
	start := time.Now()
	resp, err := d.client.Do(hreq)
	if err != nil {
		return 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	if id != 0 {
		d.tr.rttNs.Add(int64(end.Sub(start)))
		d.tr.requests.Add(1)
		if req%requestKeepMod == 0 {
			d.tr.record(id, parent, req, "http.request", start, end)
		}
	}
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

func (d *daemon) metrics(ctx context.Context) (service.Metrics, error) {
	var m service.Metrics
	code, err := d.call(ctx, http.MethodGet, "/metrics", nil, &m, 0, 0)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("metrics: HTTP %d", code)
	}
	return m, err
}

// await polls a submitted job until it is terminal and returns its
// result and the number of status polls.
func (d *daemon) await(ctx context.Context, id string, parent, req int64) (service.Result, int, error) {
	var res service.Result
	polls := 0
	for {
		var job service.Job
		code, err := d.call(ctx, http.MethodGet, "/jobs/"+id, nil, &job, parent, req)
		polls++
		if err != nil {
			return res, polls, err
		}
		if code != http.StatusOK {
			return res, polls, fmt.Errorf("status of %s: HTTP %d", id, code)
		}
		switch job.State {
		case service.StateDone:
			code, err := d.call(ctx, http.MethodGet, "/jobs/"+id+"/result", nil, &res, parent, req)
			if err == nil && code != http.StatusOK {
				err = fmt.Errorf("result of %s: HTTP %d", id, code)
			}
			return res, polls, err
		case service.StateFailed, service.StateCanceled:
			return res, polls, fmt.Errorf("job %s %s: %s", id, job.State, job.Error)
		}
		time.Sleep(pollEvery)
	}
}

// coldJob submits a fresh spec and waits for its result.
func (d *daemon) coldJob(ctx context.Context, spec service.JobSpec, span, req int64) (service.Result, int, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return service.Result{}, 0, err
	}
	var job service.Job
	code, err := d.call(ctx, http.MethodPost, "/jobs", body, &job, span, req)
	if err != nil {
		return service.Result{}, 0, err
	}
	if code != http.StatusAccepted {
		return service.Result{}, 0, fmt.Errorf("cold submit: HTTP %d (cache_hit=%v)", code, job.CacheHit)
	}
	return d.await(ctx, job.ID, span, req)
}

// hitJob resubmits a finished spec: the daemon must answer from its job
// cache at once.
func (d *daemon) hitJob(ctx context.Context, spec service.JobSpec, span, req int64) (service.Result, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return service.Result{}, err
	}
	var job service.Job
	code, err := d.call(ctx, http.MethodPost, "/jobs", body, &job, span, req)
	if err != nil {
		return service.Result{}, err
	}
	if code != http.StatusOK || !job.CacheHit || job.State != service.StateDone {
		return service.Result{}, fmt.Errorf("resubmit: HTTP %d state %s cache_hit=%v", code, job.State, job.CacheHit)
	}
	var res service.Result
	code, err = d.call(ctx, http.MethodGet, "/jobs/"+job.ID+"/result", nil, &res, span, req)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("result of %s: HTTP %d", job.ID, code)
	}
	return res, err
}

// resultDigest hashes what a job computed: its spec, values and
// artifacts (not its timings).
func resultDigest(spec service.JobSpec, res service.Result) []byte {
	raw, _ := json.Marshal(struct {
		Spec      service.JobSpec
		Values    map[string]float64
		Artifacts map[string]string
	}{spec, res.Values, res.Artifacts}) // plain maps and strings: cannot fail
	sum := sha256.Sum256(raw)
	return sum[:]
}

// clientOut is one client's share of a round.
type clientOut struct {
	lat      []time.Duration
	digests  [][]byte
	failed   int
	problems []string
	polls    int
	verify   []jobRec
	err      error
}

func (c *clientOut) fail(format string, args ...any) {
	c.failed++
	if len(c.problems) < 10 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// runClient is one closed-loop client of the round with this seed:
// coldPerRound or hitPerRound jobs.
func (d *daemon) runClient(ctx context.Context, c int, seed int64) clientOut {
	var out clientOut
	rng := rand.New(rand.NewSource(jobSeed(seed, c, -1)))
	n := coldPerRound
	if d.hit {
		n = hitPerRound
	}
	for i := range n {
		if err := ctx.Err(); err != nil {
			out.err = err
			break
		}
		req := int64(i*d.cfg.procs + c + 1)
		var span int64
		if d.tr != nil {
			span = d.tr.newID()
		}
		t0 := time.Now()
		var spec service.JobSpec
		var res service.Result
		var err error
		if d.hit {
			rec := d.pool[rng.Intn(len(d.pool))]
			spec = rec.spec
			if res, err = d.hitJob(ctx, spec, span, req); err == nil && !sameResult(res, rec.res) {
				err = fmt.Errorf("cache hit for seed %d differs from the job that filled it", spec.Seed)
			}
		} else {
			spec = coldSpec(d.cfg, seed, c, i)
			var polls int
			res, polls, err = d.coldJob(ctx, spec, span, req)
			out.polls += polls
			if err == nil && !(res.Values["cpi"] > 0) {
				err = fmt.Errorf("%s/%s seed %d: CPI %v", spec.Bench, spec.Scheme, spec.Seed, res.Values["cpi"])
			}
			if err == nil && i%verifyEvery == 0 {
				out.verify = append(out.verify, jobRec{spec, res})
			}
		}
		t1 := time.Now()
		if d.tr != nil {
			d.tr.jobNs.Add(int64(t1.Sub(t0)))
			if req%requestKeepMod == 0 {
				d.tr.record(span, d.tr.root, req, "daemon.job", t0, t1)
			}
		}
		out.lat = append(out.lat, t1.Sub(t0))
		out.digests = append(out.digests, resultDigest(spec, res))
		if err != nil {
			if ctx.Err() != nil {
				out.err = ctx.Err()
				break
			}
			out.fail("job %d of client %d: %v", i, c, err)
		}
	}
	return out
}

func sameResult(a, b service.Result) bool {
	return a.Kind == b.Kind && maps.Equal(a.Values, b.Values) && maps.Equal(a.Artifacts, b.Artifacts)
}

// verifyCold re-simulates a sampled cold job directly and compares the
// values the daemon reported.
func verifyCold(ctx context.Context, rec jobRec) error {
	prof, ok := trace.ProfileByName(rec.spec.Bench)
	if !ok {
		return fmt.Errorf("no profile %q", rec.spec.Bench)
	}
	id := experiments.Parity1D
	for id.String() != rec.spec.Scheme {
		if id++; id > experiments.TwoDim {
			return fmt.Errorf("no scheme %q", rec.spec.Scheme)
		}
	}
	b := experiments.Budget{Warmup: rec.spec.Warmup, Measure: rec.spec.Measure, Seed: rec.spec.Seed}
	run, err := experiments.SimulateCtx(ctx, prof, id, b)
	if err != nil {
		return err
	}
	want := map[string]float64{
		"cpi":            run.CPI,
		"l1_misses":      float64(run.L1.Misses),
		"l1_accesses":    float64(run.L1.Accesses()),
		"l2_misses":      float64(run.L2.Misses),
		"l2_accesses":    float64(run.L2.Accesses()),
		"l1_dirty_frac":  run.L1Gran.Dirty,
		"l2_dirty_frac":  run.L2Gran.Dirty,
		"l1_tavg_cycles": run.L1Gran.Tavg,
		"l2_tavg_cycles": run.L2Gran.Tavg,
	}
	for k, v := range want {
		if got, ok := rec.res.Values[k]; !ok || got != v {
			return fmt.Errorf("%s/%s seed %d: daemon %s=%v, direct simulation %v",
				rec.spec.Bench, rec.spec.Scheme, rec.spec.Seed, k, got, v)
		}
	}
	return nil
}

// daemonRunner runs the daemon workloads' rounds.
type daemonRunner struct {
	cfg config
	hit bool
	d   *daemon // the set-up's daemon, until round 0 takes it
}

func (r *daemonRunner) close() error {
	if r.d == nil {
		return nil
	}
	err := r.d.close()
	r.d = nil
	return err
}

// round runs round n on the set-up's daemon if it is still there (the
// first phase's round 0, which is untraced), otherwise on a fresh one,
// and closes the daemon afterwards. A fresh daemon's colds miss every
// cache, as round 0's did. Only the clients' time is timed.
func (r *daemonRunner) round(ctx context.Context, n int, tr *tracer) (*round, error) {
	d := r.d
	r.d = nil
	if d == nil {
		var err error
		if d, err = startDaemon(ctx, r.cfg, r.hit, tr); err != nil {
			return nil, err
		}
	}
	rd, err := d.round(ctx, roundSeed(r.cfg.seed, n))
	if cerr := d.close(); err == nil {
		err = cerr
	}
	return rd, err
}

// round runs cfg.procs clients over the daemon, checks every 50th cold
// result against a direct simulation after the timed part, and reads the
// service's counters around it.
func (d *daemon) round(ctx context.Context, seed int64) (*round, error) {
	if d.tr != nil {
		d.tr.resetStore() // forget the pool fill
	}
	m0, err := d.metrics(ctx)
	if err != nil {
		return nil, err
	}
	outs := make([]clientOut, d.cfg.procs)
	start := time.Now()
	var wg sync.WaitGroup
	for c := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[c] = d.runClient(ctx, c, seed)
		}()
	}
	wg.Wait()
	rd := newRound()
	rd.timed = time.Since(start)
	if d.tr != nil {
		d.tr.finishDaemon()
	}

	var digests [][]byte
	var verify []jobRec
	for _, out := range outs {
		if out.err != nil {
			return nil, out.err
		}
		rd.lat = append(rd.lat, out.lat...)
		rd.failed += out.failed
		rd.problems = append(rd.problems, out.problems...)
		rd.counts["service.polls"] += float64(out.polls)
		digests = append(digests, out.digests...)
		verify = append(verify, out.verify...)
	}
	rd.text = string(bytes.Join(digests, nil))
	// The golden digest covers the first client's first goldenColds
	// colds: every client's job stream is fixed by the seed alone, so it
	// does not depend on -procs.
	if d.hit {
		rd.golden = d.poolDigest
	} else {
		rd.golden = sha256Hex(string(bytes.Join(outs[0].digests[:goldenColds], nil)))
	}

	m1, err := d.metrics(ctx)
	if err != nil {
		return nil, err
	}
	busy := func(m service.Metrics) float64 { return m.WorkerUtilization * m.UptimeSec * float64(m.Workers) }
	rd.counts["service.cells_executed"] = float64(m1.CellsExecuted - m0.CellsExecuted)
	rd.counts["service.worker_utilization"] = ratio(busy(m1)-busy(m0), (m1.UptimeSec-m0.UptimeSec)*float64(m1.Workers))
	hits := float64(m1.CacheHits - m0.CacheHits)
	rd.counts["service.job_cache_hit_rate"] = ratio(hits, hits+float64(m1.CacheMisses-m0.CacheMisses))

	for _, rec := range verify {
		if err := verifyCold(ctx, rec); err != nil {
			rd.fail("%v", err)
		}
	}
	return rd, nil
}
