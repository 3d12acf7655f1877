package service

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"cppc/internal/cellstore"
	"cppc/internal/experiments"
	"cppc/internal/trace"
)

// Config sizes the daemon.
type Config struct {
	Workers   int // concurrent cells; <= 0 means runtime.GOMAXPROCS(0)
	QueueSize int // jobs with cells still awaiting a worker; <= 0 means 64
	CacheSize int // retained finished jobs; a done one answers its spec; <= 0 means 256

	// Store is the composed cell-result store the scheduler reads and
	// writes through (memory tier, optionally disk below it). nil means
	// a memory-only store of cellstore.NewMemory's default bound.
	Store cellstore.Store
}

// Errors surfaced to the HTTP layer.
var (
	ErrNotFound  = errors.New("no such job")
	ErrQueueFull = errors.New("job queue is full")
	ErrClosed    = errors.New("service is shutting down")
)

// cellJob is one schedulable cell: the shared unit of work that one or
// more parent jobs are waiting on. Cells are deduplicated by hash — a
// suite and a standalone simulate of the same benchmark, or two sweeps
// sharing a point, ride the same cellJob.
type cellJob struct {
	hash     string
	spec     JobSpec
	enqueued time.Time
	parents  []*Job // jobs awaiting this cell; empty means orphaned

	running   bool
	startedAt time.Time
	cancel    context.CancelFunc
}

// Service owns the job table, the cell run queue, the worker pool and
// the cell store. The job table is also the job cache: a retained done
// job answers every resubmission of its spec. Every submitted job is
// planned into cells; workers pull cells, not jobs, so one sweep fans
// out across the whole pool. One mutex guards the job table, the
// scheduler state and every Job's fields; snapshots returned to callers
// are copies.
type Service struct {
	cfg   Config
	store cellstore.Store

	mu       sync.Mutex
	cond     *sync.Cond          // signaled when runq grows or the service closes
	jobs     map[string]*Job     // queued, running and retained finished jobs, by ID
	byHash   map[string]*Job     // the job cache: a retained done job per spec hash
	finished []*Job              // retained finished jobs, oldest first; at most cfg.CacheSize
	cells    map[string]*cellJob // queued or running cells, by hash
	runq     []*cellJob          // FIFO of cells awaiting a worker
	closed   bool
	nextID   int

	backlogJobs int // jobs with >=1 cell still awaiting a worker, bounded by cfg.QueueSize

	started   time.Time
	busy      int   // workers currently running a cell
	busyNanos int64 // cumulative busy time across finished cells

	// Latency aggregates over cells that actually executed (cache hits
	// are excluded: they are free by construction).
	waitNanos   int64 // cell enqueue -> start
	runNanos    int64 // cell start -> finish
	runNanosMax int64
	ranCells    int

	submitted, completed, failed, canceled int
	jobsByKind                             map[string]int
	cacheHits, cacheMisses                 uint64 // job-table probes at submit
	cellsCompleted                         int
	cellsExecuted                          int // cells this process actually simulated

	wg sync.WaitGroup
}

// New builds the service and starts its workers.
func New(cfg Config) *Service {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 64
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 256
	}
	if cfg.Store == nil {
		cfg.Store = cellstore.NewMemory(0)
	}
	s := &Service{
		cfg:        cfg,
		store:      cfg.Store,
		jobs:       make(map[string]*Job),
		byHash:     make(map[string]*Job),
		cells:      make(map[string]*cellJob),
		jobsByKind: make(map[string]int),
		started:    time.Now(),
	}
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Submit validates a job and answers it from the job table when it can:
// a retained done job with the same spec hash comes back as a snapshot
// with CacheHit set, and nothing is registered or planned. Otherwise
// Submit plans the spec into cells and schedules the cells that are not
// already stored or in flight; a job whose every cell is in the cell
// store completes at once (CacheHit set) without touching the queue.
func (s *Service) Submit(spec JobSpec) (Job, error) {
	job, _, err := s.submit(spec)
	return job, err
}

// submit is Submit that also hands back the job itself: the registered
// one, which Run reads once the job ends, whether or not the table still
// holds it, or on a job-table hit the done job that answered.
func (s *Service) submit(spec JobSpec) (Job, *Job, error) {
	norm, err := spec.normalize()
	if err != nil {
		return Job{}, nil, err
	}
	hash := norm.hash()
	if hit, done, err := s.lookup(hash); done != nil || err != nil {
		return hit, done, err
	}
	plan := planCells(norm)

	// Probe the cell store before taking the scheduler lock: the store's
	// disk tier does file I/O, and fresh work misses every probe — none
	// of that belongs under s.mu. A cell completing between probe and
	// enqueue is caught again by the worker's pre-execution store check.
	planHash := make([]string, len(plan))
	cellHits := make([]*cellResult, len(plan))
	for i, c := range plan {
		planHash[i] = c.hash()
		if data, ok := s.store.Get(planHash[i]); ok {
			if res, err := decodeCell(c.Kind, data); err == nil {
				r := res
				cellHits[i] = &r
			}
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Job{}, nil, ErrClosed
	}
	now := time.Now()
	s.nextID++
	job := &Job{
		ID:        fmt.Sprintf("job-%d", s.nextID),
		Hash:      hash,
		Spec:      norm,
		State:     StateQueued,
		Progress:  Progress{Total: len(plan)},
		Submitted: now,
		seq:       s.nextID,
		done:      make(chan struct{}),
		plan:      plan,
		planHash:  planHash,
		cellIdx:   make(map[string]int, len(plan)),
		cellRes:   make([]cellResult, len(plan)),
		delivered: make([]bool, len(plan)),
		remaining: len(plan),
	}

	var missing []int
	for i := range plan {
		job.cellIdx[planHash[i]] = i
		if cellHits[i] != nil {
			job.cellRes[i] = *cellHits[i]
			job.delivered[i] = true
			job.remaining--
			job.Progress.Done++
		} else {
			missing = append(missing, i)
		}
	}

	if job.remaining == 0 {
		// Every cell was computed before under some other parent:
		// assemble the report synchronously — the whole job is a cache
		// hit even though this exact spec never ran. Rendering every
		// artifact can take a while, so drop the lock for the render
		// (the job is still local; nothing else can see it yet).
		s.mu.Unlock()
		res := aggregate(norm, job.cellRes)
		s.mu.Lock()
		if s.closed {
			return Job{}, nil, ErrClosed
		}
		job.CacheHit = true
		job.result = res
		job.Started = &now
		s.register(job)
		s.endLocked(job, StateDone, "", now)
		s.completed++
		return *job, job, nil
	}

	// Admission: a job counts against the queue bound until every cell
	// it is waiting on has started, so the run queue can accumulate at
	// most the plans of cfg.QueueSize jobs. Cells already in flight are
	// free to join (single-flight adds no work).
	unstarted := 0
	joinedRunning := false
	for _, i := range missing {
		if c, ok := s.cells[job.planHash[i]]; ok && c.running {
			joinedRunning = true
		} else {
			unstarted++
		}
	}
	if unstarted > 0 {
		if s.backlogJobs >= s.cfg.QueueSize {
			return Job{}, nil, ErrQueueFull
		}
		s.backlogJobs++
	}
	job.unstarted = unstarted
	for _, i := range missing {
		h := job.planHash[i]
		if c, ok := s.cells[h]; ok {
			c.parents = append(c.parents, job) // single-flight: join the in-flight cell
			continue
		}
		c := &cellJob{hash: h, spec: plan[i], enqueued: now, parents: []*Job{job}}
		s.cells[h] = c
		s.runq = append(s.runq, c)
	}
	s.cond.Broadcast()
	s.register(job)
	if joinedRunning {
		// Joining a cell that already started means the job is running
		// right now; without this it would reach StateDone straight from
		// StateQueued with Started unset.
		s.markRunningLocked(job, now)
	}
	return *job, job, nil
}

// lookup probes the job cache: a retained done job with the spec's hash
// answers the submission, as a snapshot with CacheHit set, and lookup
// returns the job too (nil on a miss). It counts the hit or miss.
func (s *Service) lookup(hash string) (Job, *Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Job{}, nil, ErrClosed
	}
	j, ok := s.byHash[hash]
	if !ok {
		s.cacheMisses++
		return Job{}, nil, nil
	}
	s.cacheHits++
	hit := *j
	hit.CacheHit = true
	return hit, j, nil
}

// Run submits spec and blocks until the job ends, returning its result.
// It is the in-process door to the planner, scheduler and renderers the
// HTTP API drives. A job the caches answer at submit returns at once,
// from the snapshot Submit took. Run reads a job that ends from the job
// itself, not through its ID, which the table may have evicted by then.
// When ctx ends first, Run cancels the job — cells no other job waits on
// stop — and returns ctx's error.
func (s *Service) Run(ctx context.Context, spec JobSpec) (*Result, error) {
	job, live, err := s.submit(spec)
	if err != nil {
		return nil, err
	}
	if job.CacheHit {
		return job.result, nil
	}
	select {
	case <-job.done:
	case <-ctx.Done():
		// Only a finished job leaves the table, and Cancel leaves a
		// finished job alone, so its answer changes nothing here.
		s.Cancel(job.ID)
		return nil, ctx.Err()
	}
	end := s.snapshot(live)
	if end.State != StateDone {
		return nil, fmt.Errorf("job %s %s: %s", end.ID, end.State, end.Error)
	}
	return end.result, nil
}

// register must run under s.mu. It indexes the job and counts the
// submission.
func (s *Service) register(job *Job) {
	s.jobs[job.ID] = job
	s.submitted++
	s.jobsByKind[job.Spec.Kind]++
}

// Job returns a snapshot of one job.
func (s *Service) Job(id string) (Job, error) {
	j, _, err := s.find(id)
	return j, err
}

// snapshot copies a job, whether or not the table still holds it.
func (s *Service) snapshot(j *Job) Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return *j
}

// JobResult returns a finished job's result.
func (s *Service) JobResult(id string) (Job, *Result, error) {
	job, _, err := s.find(id)
	return job, job.result, err
}

// find returns a snapshot of one job and the job itself, which a caller
// may follow through snapshot past the point where the table evicts it,
// or keep an answer on (keepAnswer).
func (s *Service) find(id string) (Job, *Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, nil, ErrNotFound
	}
	return *j, j, nil
}

// keepAnswer stores b, one of a done job's encoded answers, in *slot,
// the job's field for it (see Job.hitJSON), and returns b. A done job
// never changes, so the bytes never go stale, and two requests that
// both found the slot empty store the same bytes.
func (s *Service) keepAnswer(slot *[]byte, b []byte) []byte {
	s.mu.Lock()
	*slot = b
	s.mu.Unlock()
	return b
}

// Jobs lists snapshots of the retained jobs — every queued or running
// job and the last cfg.CacheSize finished ones — in submission order.
func (s *Service) Jobs() []Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, *j)
	}
	slices.SortFunc(out, func(a, b Job) int { return cmp.Compare(a.seq, b.seq) })
	return out
}

// Cancel cancels a queued or running job: the job is detached from its
// cells, any cell it was the last parent of is canceled (running) or
// dropped (queued), and cells other jobs still wait on keep running.
// Terminal jobs are left alone (the returned snapshot tells the caller
// which case they hit).
func (s *Service) Cancel(id string) (Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, ErrNotFound
	}
	now := time.Now()
	switch j.State {
	case StateQueued:
		s.finishCanceledLocked(j, "canceled before start", now)
	case StateRunning:
		s.finishCanceledLocked(j, "canceled", now)
	}
	return *j, nil
}

// finishCanceledLocked moves a non-terminal job to StateCanceled and
// releases its cells. Must run under s.mu.
func (s *Service) finishCanceledLocked(j *Job, reason string, now time.Time) {
	s.detachLocked(j)
	s.endLocked(j, StateCanceled, reason, now)
	s.canceled++
}

// endLocked is a job's one terminal transition: it releases the job's
// claim on the queue bound, stamps the end state, wakes Run and files
// the job among the retained finished ones. A done job becomes its
// spec's job-cache entry. Past cfg.CacheSize finished jobs, the oldest
// leaves the table, and its ID answers ErrNotFound from then on.
// Callers check that the job is not terminal yet, so done is closed
// exactly once. Must run under s.mu.
func (s *Service) endLocked(j *Job, state State, errMsg string, now time.Time) {
	s.clearBacklogLocked(j)
	j.State = state
	j.Error = errMsg
	j.Finished = &now
	j.Version++
	close(j.done)
	if state == StateDone {
		s.byHash[j.Hash] = j
	}
	s.finished = append(s.finished, j)
	if len(s.finished) > s.cfg.CacheSize {
		old := s.finished[0]
		s.finished[0] = nil // frees the job before the array is reallocated
		s.finished = s.finished[1:]
		delete(s.jobs, old.ID)
		if s.byHash[old.Hash] == old {
			delete(s.byHash, old.Hash)
		}
	}
}

// detachLocked removes the job from every cell it is still waiting on.
// A running cell with no parents left is canceled; a queued one stays in
// the run queue and is discarded when a worker pops it. Must run under
// s.mu.
func (s *Service) detachLocked(j *Job) {
	for i, h := range j.planHash {
		if j.delivered[i] {
			continue
		}
		c, ok := s.cells[h]
		if !ok {
			continue
		}
		for k, p := range c.parents {
			if p == j {
				c.parents = append(c.parents[:k], c.parents[k+1:]...)
				break
			}
		}
		if len(c.parents) == 0 && c.running && c.cancel != nil {
			c.cancel()
		}
	}
}

// Shutdown stops accepting submissions and drains the run queue: every
// accepted job still runs to completion. When ctx expires first, the
// remaining jobs are canceled (in-flight cells via their contexts) and
// Shutdown returns ctx's error after the workers exit.
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		s.cond.Broadcast()
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		now := time.Now()
		for _, j := range s.jobs {
			if !j.State.terminal() {
				s.finishCanceledLocked(j, "canceled", now)
			}
		}
		s.cond.Broadcast()
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// worker pulls cells off the run queue until shutdown drains it. The
// loop body runs under s.mu except for the cell execution itself.
func (s *Service) worker() {
	defer s.wg.Done()
	s.mu.Lock()
	for {
		for len(s.runq) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.runq) == 0 { // closed and drained
			s.mu.Unlock()
			return
		}
		c := s.runq[0]
		s.runq = s.runq[1:]
		if len(c.parents) == 0 { // orphaned while queued
			delete(s.cells, c.hash)
			continue
		}

		start := time.Now()
		ctx, cancel := context.WithCancel(context.Background())
		c.cancel = cancel
		c.running = true
		c.startedAt = start
		for _, p := range c.parents {
			s.markRunningLocked(p, start)
			s.cellStartedLocked(p)
		}
		s.busy++
		s.waitNanos += start.Sub(c.enqueued).Nanoseconds()
		// Intra-cell parallelism hint: workers with neither a running cell
		// nor queued work to pick up would otherwise idle, so this cell may
		// spread its internal independent work (a multicore cell's trace
		// read-ahead, the l3 placement runs) across them. Purely a
		// wall-clock knob — cell results and cache keys are identical
		// whatever it says.
		spare := s.cfg.Workers - s.busy - len(s.runq)
		s.mu.Unlock()
		if spare > 0 {
			ctx = experiments.WithCellWorkers(ctx, 1+spare)
		}

		res, err := s.runCell(ctx, c.hash, c.spec)
		cancel()

		s.mu.Lock()
		end := time.Now()
		runNs := end.Sub(start).Nanoseconds()
		s.busy--
		s.busyNanos += runNs
		s.runNanos += runNs
		if runNs > s.runNanosMax {
			s.runNanosMax = runNs
		}
		s.ranCells++
		delete(s.cells, c.hash)
		if err == nil {
			s.cellsCompleted++
			var ready []*Job // parents this cell completed
			for _, p := range c.parents {
				if s.deliverLocked(p, c.hash, res) {
					ready = append(ready, p)
				}
			}
			if len(ready) > 0 {
				// Aggregation renders every artifact of the parent job;
				// do it outside the lock so the other workers and the
				// API handlers keep moving. The parents' cell slices are
				// complete and no longer written to, so reading them
				// unlocked is safe.
				s.mu.Unlock()
				aggs := make([]*Result, len(ready))
				for i, p := range ready {
					aggs[i] = aggregate(p.Spec, p.cellRes)
				}
				s.mu.Lock()
				for i, p := range ready {
					s.finishAggregatedLocked(p, aggs[i], end)
				}
			}
		} else {
			canceled := errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
			for _, p := range c.parents {
				s.failLocked(p, err, canceled, end)
			}
		}
	}
}

// markRunningLocked moves a queued parent to StateRunning when its first
// cell starts (or when it joins a cell that had already started). Must
// run under s.mu.
func (s *Service) markRunningLocked(p *Job, now time.Time) {
	if p.State != StateQueued {
		return
	}
	t := now
	p.State = StateRunning
	p.Started = &t
	p.Version++
}

// cellStartedLocked notes that one of p's planned cells reached a
// worker. The job stops counting against the queue bound once every
// cell it is waiting on has started. Must run under s.mu.
func (s *Service) cellStartedLocked(p *Job) {
	if p.unstarted == 0 {
		return
	}
	p.unstarted--
	if p.unstarted == 0 {
		s.backlogJobs--
	}
}

// clearBacklogLocked releases a terminal job's claim on the queue bound
// when it still had cells awaiting a worker. Must run under s.mu.
func (s *Service) clearBacklogLocked(j *Job) {
	if j.unstarted > 0 {
		j.unstarted = 0
		s.backlogJobs--
	}
}

// deliverLocked hands one completed cell to a parent; the parent's
// progress derives from its cells. Returns true when this was the
// parent's last outstanding cell: the caller then aggregates outside
// the lock and publishes through finishAggregatedLocked. Must run
// under s.mu.
func (s *Service) deliverLocked(p *Job, hash string, res cellResult) bool {
	if p.State.terminal() {
		return false
	}
	idx, ok := p.cellIdx[hash]
	if !ok || p.delivered[idx] {
		return false
	}
	p.cellRes[idx] = res
	p.delivered[idx] = true
	p.remaining--
	p.Progress.Done++
	p.Version++
	return p.remaining == 0
}

// finishAggregatedLocked publishes a fully-delivered parent's report.
// The parent may have been canceled while the caller aggregated outside
// the lock; the result is dropped in that case. Must run under s.mu.
func (s *Service) finishAggregatedLocked(p *Job, agg *Result, end time.Time) {
	if p.State.terminal() {
		return
	}
	if p.Started != nil {
		agg.ElapsedMs = end.Sub(*p.Started).Milliseconds()
	}
	p.result = agg
	s.endLocked(p, StateDone, "", end)
	s.completed++
}

// failLocked fails (or cancels) a parent whose cell errored and releases
// its remaining cells. Must run under s.mu.
func (s *Service) failLocked(p *Job, err error, canceled bool, end time.Time) {
	if p.State.terminal() {
		return
	}
	if canceled {
		s.finishCanceledLocked(p, "canceled", end)
		return
	}
	s.detachLocked(p)
	s.endLocked(p, StateFailed, err.Error(), end)
	s.failed++
}

// runCell produces one cell's result through the store seam: a result
// computed earlier, by another job or by a previous process over the
// same data dir, is decoded and reused; otherwise the cell executes and
// its canonical bytes are written through every store tier. The fresh
// result is decoded from those bytes too, so a cold answer and a
// warm-restart answer are built from the same bytes. CellsExecuted
// counts exactly the simulations this process ran. Runs outside s.mu.
func (s *Service) runCell(ctx context.Context, hash string, spec JobSpec) (cellResult, error) {
	if data, ok := s.store.Get(hash); ok {
		if res, err := decodeCell(spec.Kind, data); err == nil {
			return res, nil
		}
		// A corrupt or foreign entry (torn disk write, another kind's
		// cell) falls through to recomputation and is overwritten below.
	}
	res, err := executeCell(ctx, spec)
	if err != nil {
		return cellResult{}, err
	}
	s.mu.Lock()
	s.cellsExecuted++
	s.mu.Unlock()
	data, err := encodeCell(res)
	if err != nil {
		return cellResult{}, err
	}
	if res, err = decodeCell(spec.Kind, data); err != nil {
		return cellResult{}, err
	}
	s.store.Put(hash, data)
	return res, nil
}

// draining reports whether Shutdown has begun: the daemon refuses new
// jobs and /healthz turns not-ready so load balancers stop routing work
// here.
func (s *Service) draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// executeCell runs one cell's simulation under its cancellation context.
// Cell specs are normalized, so lookups cannot fail here.
func executeCell(ctx context.Context, spec JobSpec) (cellResult, error) {
	switch spec.Kind {
	case KindSimulate:
		prof, _ := trace.ProfileByName(spec.Bench)
		id, _ := experiments.ParseScheme(spec.Scheme)
		run, err := experiments.SimulateCtx(ctx, prof, id, spec.budget())
		if err != nil {
			return cellResult{}, err
		}
		return cellResult{Run: &run}, nil
	case KindMulticore:
		prof, _ := trace.ProfileByName(spec.Bench)
		plain, silent, err := experiments.MulticoreCellPricings(ctx, prof, spec.Cores, spec.SharedFrac, spec.budget())
		if err != nil {
			return cellResult{}, err
		}
		return cellResult{Multicore: &plain, MulticoreSilent: &silent}, nil
	case KindL3:
		prof, _ := trace.ProfileByName(spec.Bench)
		run, err := experiments.L3Cell(ctx, prof, spec.budget())
		if err != nil {
			return cellResult{}, err
		}
		return cellResult{L3: &run}, nil
	case KindMonteCarlo:
		cell, err := experiments.MonteCarloCellCtx(ctx, spec.Scheme, spec.Trials, spec.Seed)
		if err != nil {
			return cellResult{}, err
		}
		return cellResult{MC: &cell}, nil
	case KindFieldMC:
		pt := experiments.FieldPoint{Footprint: spec.Footprint, Lifetime: spec.Lifetime, Rate: spec.Rate}
		cell, err := experiments.FieldMCCellCtx(ctx, spec.Scheme, pt, spec.Trials, spec.Seed)
		if err != nil {
			return cellResult{}, err
		}
		return cellResult{FieldMC: &cell}, nil
	default:
		return cellResult{}, fmt.Errorf("job kind %q is not a cell", spec.Kind) // unreachable after planCells
	}
}

// aggregate assembles a job's report from its completed cells (in plan
// order) through the experiments renderers, so the artifacts do not
// depend on the order in which cells completed. Every cell was decoded
// or executed for its planned spec's kind, so it carries that kind's
// payload.
func aggregate(spec JobSpec, cells []cellResult) *Result {
	res := &Result{Kind: spec.Kind, Artifacts: map[string]string{}}
	switch {
	case spec.Kind == KindSuite:
		suite := experiments.NewSuite(spec.budget())
		for _, c := range cells {
			suite.Add(*c.Run)
		}
		want := spec.Figures
		if len(want) == 0 {
			want = suiteArtifacts
		}
		for _, f := range want {
			res.Artifacts[f] = suiteRenderers[f](suite)
		}
	case spec.Kind == KindSimulate:
		run := cells[0].Run
		res.Values = map[string]float64{
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
		res.Artifacts["summary"] = fmt.Sprintf("%s/%s: CPI %.4f (L1 %d/%d misses, L2 %d/%d)\n",
			run.Bench, run.Scheme, run.CPI,
			run.L1.Misses, run.L1.Accesses(), run.L2.Misses, run.L2.Accesses())
	case spec.Kind == KindMonteCarlo:
		mcs := make([]experiments.MonteCarloCell, 0, len(cells))
		for _, c := range cells {
			mcs = append(mcs, *c.MC)
		}
		res.Artifacts["montecarlo"] = experiments.MonteCarloTable(spec.Trials, mcs)
	case spec.Kind == KindFieldMC && spec.Scheme == "":
		fcs := make([]experiments.FieldMCCell, 0, len(cells))
		for _, c := range cells {
			fcs = append(fcs, *c.FieldMC)
		}
		res.Artifacts["fieldmc"] = experiments.FieldMCTable(spec.Trials, fcs)
	case spec.Kind == KindFieldMC:
		cell := cells[0].FieldMC
		res.Values = map[string]float64{
			"corrected":     float64(cell.Counts.Corrected),
			"due":           float64(cell.Counts.DUE),
			"sdc":           float64(cell.Counts.SDC),
			"coverage_rate": cell.Counts.CoverageRate(),
		}
		res.Artifacts["summary"] = fmt.Sprintf("%s @ %s: %s of %d trials\n",
			cell.Scheme, cell.Point, cell.Counts.String(), cell.Counts.Total())
	case spec.Kind == KindMulticore && spec.Sweep:
		runs := make([]experiments.MulticoreRun, 0, len(cells))
		for _, c := range cells {
			runs = append(runs, c.multicoreRun(spec.Silent))
		}
		res.Artifacts["sec7"] = experiments.Section7Table(runs)
	case spec.Kind == KindMulticore:
		run := cells[0].multicoreRun(spec.Silent)
		rbwPerStore := 0.0
		if run.L1.Stores > 0 {
			rbwPerStore = float64(run.L1.ReadBeforeWrite) / float64(run.L1.Stores)
		}
		res.Values = map[string]float64{
			"cpi":             run.CPI,
			"cycles":          float64(run.Cycles),
			"instructions":    float64(run.Instructions),
			"rbw_per_store":   rbwPerStore,
			"bus_reads":       float64(run.Coherence.BusReads),
			"bus_readx":       float64(run.Coherence.BusReadX),
			"invalidations":   float64(run.Coherence.Invalidations),
			"owner_flushes":   float64(run.Coherence.OwnerFlushes),
			"bus_busy_cycles": float64(run.Coherence.BusBusyCycles),
			"dirty_l1_frac":   run.DirtyL1,
			"energy_l1_pj":    run.EnergyL1.Total(),
			"energy_l2_pj":    run.EnergyL2.Total(),
			"energy_bus_pj":   run.EnergyBus.Total(),
			"energy_total_pj": run.TotalEnergyPJ(),
			"silent_elided":   float64(run.ElidedL1 + run.ElidedL2),
		}
		variant := ""
		if run.Silent {
			variant = " [silent]"
		}
		res.Artifacts["summary"] = fmt.Sprintf(
			"%s x%d cores (shared %.2f)%s: CPI %.4f over %d cycles; RBW/store %.4f, %d invalidations, %d owner flushes; %.1f nJ (L1 %.1f, L2 %.1f, bus %.1f), %d silent stores elided\n",
			run.Bench, run.Cores, run.SharedFrac, variant, run.CPI, run.Cycles,
			rbwPerStore, run.Coherence.Invalidations, run.Coherence.OwnerFlushes,
			run.TotalEnergyPJ()/1e3, run.EnergyL1.Total()/1e3, run.EnergyL2.Total()/1e3, run.EnergyBus.Total()/1e3,
			run.ElidedL1+run.ElidedL2)
	case spec.Kind == KindL3 && spec.Sweep:
		runs := make([]experiments.L3Run, 0, len(cells))
		for _, c := range cells {
			runs = append(runs, *c.L3)
		}
		res.Artifacts["l3"] = experiments.L3Table(runs)
	case spec.Kind == KindL3:
		run := cells[0].L3
		res.Values = map[string]float64{
			"cpi_parity":       run.ParityCPI,
			"cpi_cppc_l3":      run.CPPCL3CPI,
			"cpi_cppc_l2":      run.CPPCL2CPI,
			"l3_accesses":      float64(run.L3Accesses),
			"l3_miss_rate":     run.L3MissRate,
			"rbw_per_store_l2": run.RBWPerStoreL2,
			"rbw_per_store_l3": run.RBWPerStoreL3,
			"l3_energy_ratio":  run.EnergyRatio,
		}
		res.Artifacts["summary"] = fmt.Sprintf(
			"%s L3 study: CPI parity %.4f, cppc@L3 %.4f, cppc@L2 %.4f; RBW/store L2 %.4f vs L3 %.4f; L3 energy ratio %.4f\n",
			run.Bench, run.ParityCPI, run.CPPCL3CPI, run.CPPCL2CPI,
			run.RBWPerStoreL2, run.RBWPerStoreL3, run.EnergyRatio)
	}
	return res
}
