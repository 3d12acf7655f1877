package service

import (
	"runtime/metrics"
	"time"

	"cppc/internal/cellstore"
	"cppc/internal/fault"
)

// Metrics is the GET /metrics payload: queue pressure, worker
// utilization, cache effectiveness (the job table and the cell store),
// shard scheduler gauges and cell latency, all since startup.
type Metrics struct {
	UptimeSec float64 `json:"uptime_sec"`

	Workers           int     `json:"workers"`
	BusyWorkers       int     `json:"busy_workers"`
	WorkerUtilization float64 `json:"worker_utilization"` // busy-time fraction since start

	QueueDepth    int `json:"queue_depth"` // jobs with cells still awaiting a worker
	QueueCapacity int `json:"queue_capacity"`

	// Job counters cover registered jobs. A submission the job table
	// answers registers none and counts only in CacheHits.
	JobsSubmitted int            `json:"jobs_submitted"`
	JobsRunning   int            `json:"jobs_running"`
	JobsCompleted int            `json:"jobs_completed"`
	JobsFailed    int            `json:"jobs_failed"`
	JobsCanceled  int            `json:"jobs_canceled"`
	JobsByKind    map[string]int `json:"jobs_by_kind,omitempty"` // submissions per job kind

	// Shard scheduler gauges: cells are the unit workers actually run.
	// CellsCompleted counts cells a worker delivered (including store
	// hits); CellsExecuted counts the simulations this process ran:
	// the cells that missed the store.
	CellsQueued    int `json:"cells_queued"`
	CellsRunning   int `json:"cells_running"`
	CellsCompleted int `json:"cells_completed"`
	CellsExecuted  int `json:"cells_executed"`

	// Trial-executor gauges: campaign fan-out inside montecarlo/fieldmc
	// cells (and any standalone campaign in this process), observable
	// next to the cells_* family. TrialsExecuted counts completed
	// campaign trials since startup; TrialWorkers is the currently
	// active executor workers (a sequential campaign counts one).
	TrialsExecuted int64 `json:"trials_executed"`
	TrialWorkers   int64 `json:"trial_workers"`

	// The job cache is the job table: a hit is a submission a retained
	// done job answered, and CacheEntries counts the specs those jobs
	// answer.
	CacheHits    uint64  `json:"cache_hits"`
	CacheMisses  uint64  `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	CacheEntries int     `json:"cache_entries"`

	CellCacheHits    uint64  `json:"cell_cache_hits"`
	CellCacheMisses  uint64  `json:"cell_cache_misses"`
	CellCacheHitRate float64 `json:"cell_cache_hit_rate"`
	CellCacheEntries int     `json:"cell_cache_entries"`

	// Latencies are per executed cell (cache hits excluded).
	QueueWaitMeanMs float64 `json:"queue_wait_mean_ms"`
	RunMeanMs       float64 `json:"run_mean_ms"`
	RunMaxMs        float64 `json:"run_max_ms"`

	// StoreTiers breaks the cell store down per tier (memory, disk);
	// the legacy cell_cache_* fields above mirror the memory tier.
	StoreTiers []cellstore.Stats `json:"store_tiers,omitempty"`

	// The process's heap policy and what it costs: the GC percent in
	// force (NewServer's, or GOGC's; -1 when GOGC=off), the collections
	// since the process started, and the heap size at which the next one
	// is due.
	GCPercent     int64  `json:"gc_percent"`
	GCCycles      uint64 `json:"gc_cycles"`
	HeapGoalBytes uint64 `json:"heap_goal_bytes"`
}

// readGC fills the GC fields from runtime/metrics.
func (m *Metrics) readGC() {
	s := []metrics.Sample{{Name: "/gc/gogc:percent"}, {Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/goal:bytes"}}
	metrics.Read(s)
	// The runtime keeps the percent as a signed value: GOGC=off's -1
	// comes back as the all-ones uint64.
	m.GCPercent = int64(s[0].Value.Uint64())
	m.GCCycles = s[1].Value.Uint64()
	m.HeapGoalBytes = s[2].Value.Uint64()
}

// Metrics snapshots the counters.
func (s *Service) Metrics() Metrics {
	tiers := s.store.Stats()
	var cHits, cMisses uint64
	var cEntries int
	for _, t := range tiers {
		if t.Tier == "memory" {
			cHits, cMisses, cEntries = t.Hits, t.Misses, t.Entries
			break
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	uptime := time.Since(s.started)
	m := Metrics{
		UptimeSec:        uptime.Seconds(),
		Workers:          s.cfg.Workers,
		BusyWorkers:      s.busy,
		QueueDepth:       s.backlogJobs,
		QueueCapacity:    s.cfg.QueueSize,
		JobsSubmitted:    s.submitted,
		JobsCompleted:    s.completed,
		JobsFailed:       s.failed,
		JobsCanceled:     s.canceled,
		CellsQueued:      len(s.runq),
		CellsRunning:     s.busy,
		CellsCompleted:   s.cellsCompleted,
		CellsExecuted:    s.cellsExecuted,
		TrialsExecuted:   fault.TrialsExecuted(),
		TrialWorkers:     fault.TrialWorkers(),
		CacheHits:        s.cacheHits,
		CacheMisses:      s.cacheMisses,
		CacheEntries:     len(s.byHash),
		CellCacheHits:    cHits,
		CellCacheMisses:  cMisses,
		CellCacheEntries: cEntries,
		StoreTiers:       tiers,
	}
	if len(s.jobsByKind) > 0 {
		m.JobsByKind = make(map[string]int, len(s.jobsByKind))
		for k, v := range s.jobsByKind {
			m.JobsByKind[k] = v
		}
	}
	for _, j := range s.jobs {
		if j.State == StateRunning {
			m.JobsRunning++
		}
	}
	if total := m.CacheHits + m.CacheMisses; total > 0 {
		m.CacheHitRate = float64(m.CacheHits) / float64(total)
	}
	if total := cHits + cMisses; total > 0 {
		m.CellCacheHitRate = float64(cHits) / float64(total)
	}
	// Count the in-flight busy time too, so utilization is honest while a
	// long cell is still running.
	busyNs := s.busyNanos
	for _, c := range s.cells {
		if c.running {
			busyNs += time.Since(c.startedAt).Nanoseconds()
		}
	}
	if denom := uptime.Nanoseconds() * int64(s.cfg.Workers); denom > 0 {
		m.WorkerUtilization = float64(busyNs) / float64(denom)
	}
	if s.ranCells > 0 {
		n := float64(s.ranCells)
		m.QueueWaitMeanMs = float64(s.waitNanos) / n / 1e6
		m.RunMeanMs = float64(s.runNanos) / n / 1e6
		m.RunMaxMs = float64(s.runNanosMax) / 1e6
	}
	m.readGC()
	return m
}
