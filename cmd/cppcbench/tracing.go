package main

// The traced run (-trace 1). It wraps the public seams between the
// simulator's layers from this package only — trace.Source,
// cpu.MemoryPort, cellstore.Store and http.Handler — and times the calls
// it makes into experiments and fault cells. Spans stay in memory and are
// written as one JSON file when the run ends; layer self times accumulate
// alongside, so the per-layer numbers cover every call while the span
// file keeps a bounded sample.

import (
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cppc/internal/cellstore"
	"cppc/internal/cpu"
	"cppc/internal/protect"
	"cppc/internal/trace"
)

// layer is one rung of the simulator whose self time the traced run
// attributes. Self times of one op add up to the op's duration.
type layer int

const (
	layerTrace       layer = iota // instruction generation (trace.Source)
	layerCPU                      // the OoO core outside its memory port and trace source
	layerProtect                  // single-core memory port: protect, cache, core, bitops
	layerCoherence                // multicore memory port: coherence plus the protected caches under it
	layerExperiments              // cell set-up, statistics and rendering in experiments
	layerFault                    // fault campaign cells
	layerClient                   // daemon client time outside HTTP calls (waiting on a job)
	layerHTTP                     // HTTP transport and JSON: client round trip minus handler time
	layerService                  // daemon handlers: normalize, hash, plan, queue, caches
	numLayers
)

var layerNames = [numLayers]string{
	"trace", "cpu", "protect", "coherence", "experiments", "fault", "client", "http", "service",
}

// Sampling. Every call is counted; high-frequency calls are timed or kept
// as spans one in N, and their time is scaled by the exact call count.
const (
	accessTimeEvery = 64      // memory-port calls timed
	spanKeepEvery   = 64      // timed port calls and trace batches kept as spans
	requestKeepMod  = 16      // daemon jobs (by request id) whose spans are kept
	maxSpans        = 1 << 20 // hard cap on spans held in memory
)

// Request headers linking a daemon handler span to the client call that
// caused it.
const (
	spanHeader = "X-Bench-Span"
	reqHeader  = "X-Bench-Req"
)

type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	root   int64 // the phase's "workload" span, parent of its ops

	mu      sync.Mutex
	spans   []span
	dropped int64

	self [numLayers]atomic.Int64 // ns

	// Simulation counters: core-run time, its warm-up part, and the
	// instructions drawn through traced sources.
	cpuNs, warmupNs atomic.Int64
	instrs          atomic.Int64

	// Daemon accumulators; the client, http and service self times are
	// derived from them when the phase ends.
	jobNs, rttNs, handlerNs       atomic.Int64
	requests                      atomic.Int64
	storeNs, storeGets, storeHits atomic.Int64
}

// resetStore forgets cell-store traffic from before the measured phase
// (daemon-hit's pool fill).
func (t *tracer) resetStore() {
	t.storeNs.Store(0)
	t.storeGets.Store(0)
	t.storeHits.Store(0)
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) newID() int64 { return t.nextID.Add(1) }

func (t *tracer) record(id, parent, req int64, name string, start, end time.Time) {
	s := span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// addSelf charges d to a layer's self time.
func (t *tracer) addSelf(l layer, d time.Duration) { t.self[l].Add(int64(d)) }

// finishDaemon turns the daemon accumulators into self times at the end
// of a round: a job's time is its HTTP round trips plus the client's
// waits between them, and a round trip is the handler's time plus
// transport.
func (t *tracer) finishDaemon() {
	job, rtt, handler := t.jobNs.Swap(0), t.rttNs.Swap(0), t.handlerNs.Swap(0)
	t.self[layerClient].Add(job - rtt)
	t.self[layerHTTP].Add(rtt - handler)
	t.self[layerService].Add(handler)
}

// shares returns each layer's self time as a fraction of all attributed
// time.
func (t *tracer) shares() [numLayers]float64 {
	total := t.totalNs()
	var out [numLayers]float64
	if total <= 0 {
		return out
	}
	for i := range t.self {
		out[i] = float64(t.self[i].Load()) / float64(total)
	}
	return out
}

func (t *tracer) totalNs() int64 {
	var total int64
	for i := range t.self {
		total += t.self[i].Load()
	}
	return total
}

// writeSpans writes the kept spans as {"spans": [...], "dropped": n}.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"spans": t.spans, "dropped": t.dropped}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cellTrace collects one simulated cell's layer times from the wrappers
// around its trace sources and memory ports. A multicore cell draws trace
// batches on several goroutines at once (the cluster prefills every
// core's quantum in parallel), so trace time is the wall time covered by
// at least one batch, not the sum of batch times.
type cellTrace struct {
	tr    *tracer
	id    int64
	cpuID atomic.Int64 // the running cpu.warmup/cpu.measure span

	mu      sync.Mutex
	active  int
	since   time.Time
	traceNs int64
	batches int64

	ports []*tracedPort
	cpuNs int64
}

func (t *tracer) beginCell() *cellTrace { return &cellTrace{tr: t, id: t.newID()} }

// source wraps one of the cell's instruction sources.
func (c *cellTrace) source(src trace.BatchSource) *tracedSource {
	return &tracedSource{src: src, cell: c}
}

// port wraps one of the cell's memory ports; l is the layer its calls
// are charged to.
func (c *cellTrace) port(p cpu.MemoryPort, l layer) *tracedPort {
	tp := &tracedPort{inner: p, cell: c, layer: l, rng: 0x9e3779b97f4a7c15}
	c.ports = append(c.ports, tp)
	return tp
}

// run times one core run (warm-up or measure) as a child span of the cell.
func (c *cellTrace) run(name string, f func()) {
	id := c.tr.newID()
	c.cpuID.Store(id)
	start := time.Now()
	f()
	end := time.Now()
	d := end.Sub(start)
	c.cpuNs += int64(d)
	if name == "cpu.warmup" {
		c.tr.warmupNs.Add(int64(d))
	}
	c.tr.record(id, c.id, 0, name, start, end)
}

// end closes the cell: the cell's time splits into trace, memory port
// (estimated from the timed sample), the core's own time, and what the
// cell does outside its core runs.
func (c *cellTrace) end(start time.Time) {
	end := time.Now()
	tr := c.tr
	var portNs int64
	for _, p := range c.ports {
		ns := p.estimateNs()
		portNs += ns
		tr.addSelf(p.layer, time.Duration(ns))
	}
	tr.addSelf(layerTrace, time.Duration(c.traceNs))
	tr.addSelf(layerCPU, time.Duration(c.cpuNs-c.traceNs-portNs))
	tr.addSelf(layerExperiments, end.Sub(start)-time.Duration(c.cpuNs))
	tr.cpuNs.Add(c.cpuNs)
	tr.record(c.id, tr.root, 0, "experiments.cell", start, end)
}

func (c *cellTrace) batchStart() time.Time {
	now := time.Now()
	c.mu.Lock()
	if c.active == 0 {
		c.since = now
	}
	c.active++
	c.mu.Unlock()
	return now
}

func (c *cellTrace) batchEnd(start time.Time, n int) {
	now := time.Now()
	c.mu.Lock()
	c.active--
	if c.active == 0 {
		c.traceNs += int64(now.Sub(c.since))
	}
	c.batches++
	keep := c.batches%spanKeepEvery == 0
	c.mu.Unlock()
	c.tr.instrs.Add(int64(n))
	if keep {
		c.tr.record(c.tr.newID(), c.cpuID.Load(), 0, "trace.batch", start, now)
	}
}

// countingSource forwards a batch source and counts the instructions it
// hands out, so a cell's drawn instructions can be checked against its
// budget. It keeps the BatchSource interface, so the core still refills
// in batches exactly as it would from the bare source.
type countingSource struct {
	src trace.BatchSource
	n   uint64
}

func (s *countingSource) Next() trace.Instr {
	s.n++
	return s.src.Next()
}

func (s *countingSource) NextBatch(dst []trace.Instr) int {
	k := s.src.NextBatch(dst)
	s.n += uint64(k)
	return k
}

// tracedSource times every batch of a source.
type tracedSource struct {
	src  trace.BatchSource
	cell *cellTrace
}

func (s *tracedSource) Next() trace.Instr {
	var buf [1]trace.Instr
	s.NextBatch(buf[:])
	return buf[0]
}

func (s *tracedSource) NextBatch(dst []trace.Instr) int {
	start := s.cell.batchStart()
	n := s.src.NextBatch(dst)
	s.cell.batchEnd(start, n)
	return n
}

// tracedPort counts every memory-port call and times a random one in
// accessTimeEvery. The sample is random because the core's calls come in
// fixed patterns (a cheap plan call before each access), which a fixed
// stride would sample unevenly. A port call takes about as long as
// reading the clock twice, and a clock read far from the last one costs
// more than in a tight loop, so half the sampled slots time an empty
// interval at the same place instead, and the mean empty interval is
// subtracted from the mean timed call. A cell's port calls are
// serialized (one core, or the cores of a shared hierarchy executing in
// core order), so the counters need no locking.
type tracedPort struct {
	inner cpu.MemoryPort
	cell  *cellTrace
	layer layer

	rng              uint64 // xorshift state
	calls            int64
	timed, timedNs   int64
	clocks, clocksNs int64
}

// sample counts a call and says whether to time it.
func (p *tracedPort) sample() bool {
	p.calls++
	p.rng ^= p.rng << 13
	p.rng ^= p.rng >> 7
	p.rng ^= p.rng << 17
	if p.rng%accessTimeEvery != 0 {
		return false
	}
	if p.rng&(1<<32) != 0 {
		return true
	}
	start := time.Now()
	p.clocksNs += int64(time.Since(start))
	p.clocks++
	return false
}

func (p *tracedPort) noteTimed(start time.Time) {
	now := time.Now()
	p.timed++
	p.timedNs += int64(now.Sub(start))
	if p.timed%spanKeepEvery == 0 {
		name := "protect.access"
		if p.layer == layerCoherence {
			name = "coherence.access"
		}
		p.cell.tr.record(p.cell.tr.newID(), p.cell.cpuID.Load(), 0, name, start, now)
	}
}

// estimateNs scales the sample up to every call.
func (p *tracedPort) estimateNs() int64 {
	if p.timed == 0 || p.clocks == 0 {
		return 0
	}
	per := float64(p.timedNs)/float64(p.timed) - float64(p.clocksNs)/float64(p.clocks)
	return int64(max(per, 0) * float64(p.calls))
}

func (p *tracedPort) LoadInto(addr, now uint64, res *protect.AccessResult) {
	if !p.sample() {
		p.inner.LoadInto(addr, now, res)
		return
	}
	start := time.Now()
	p.inner.LoadInto(addr, now, res)
	p.noteTimed(start)
}

func (p *tracedPort) StoreInto(addr, val, now uint64, res *protect.AccessResult) {
	if !p.sample() {
		p.inner.StoreInto(addr, val, now, res)
		return
	}
	start := time.Now()
	p.inner.StoreInto(addr, val, now, res)
	p.noteTimed(start)
}

func (p *tracedPort) PlanStore(addr uint64) (bool, int) {
	if !p.sample() {
		return p.inner.PlanStore(addr)
	}
	start := time.Now()
	wait, words := p.inner.PlanStore(addr)
	p.noteTimed(start)
	return wait, words
}

func (p *tracedPort) PlanLoadMiss(addr uint64) int {
	if !p.sample() {
		return p.inner.PlanLoadMiss(addr)
	}
	start := time.Now()
	n := p.inner.PlanLoadMiss(addr)
	p.noteTimed(start)
	return n
}

func (p *tracedPort) HitLatency() int { return p.inner.HitLatency() }
func (p *tracedPort) Halted() bool    { return p.inner.Halted() }

// op times one call this package makes into a layer (a fault campaign
// cell, a render) and charges all of it to that layer.
func (t *tracer) op(name string, l layer, f func()) {
	id := t.newID()
	start := time.Now()
	f()
	end := time.Now()
	t.addSelf(l, end.Sub(start))
	t.record(id, t.root, 0, name, start, end)
}

// tracedStore wraps the daemon's cell store.
type tracedStore struct {
	cellstore.Store
	tr    *tracer
	calls atomic.Int64
}

func (s *tracedStore) note(name string, start time.Time) {
	end := time.Now()
	s.tr.storeNs.Add(int64(end.Sub(start)))
	if s.calls.Add(1)%requestKeepMod == 0 {
		s.tr.record(s.tr.newID(), 0, 0, name, start, end)
	}
}

func (s *tracedStore) Get(hash string) ([]byte, bool) {
	start := time.Now()
	data, ok := s.Store.Get(hash)
	s.note("cellstore.get", start)
	s.tr.storeGets.Add(1)
	if ok {
		s.tr.storeHits.Add(1)
	}
	return data, ok
}

func (s *tracedStore) Put(hash string, data []byte) {
	start := time.Now()
	s.Store.Put(hash, data)
	s.note("cellstore.put", start)
}

// handler wraps the daemon's HTTP handler. Requests that carry the
// benchmark's span header are a job's calls: their handler time is the
// service layer's, and their spans link to the client call.
func (t *tracer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		parent, err := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		if err != nil {
			return // not a job's call (health checks, /metrics)
		}
		t.handlerNs.Add(int64(end.Sub(start)))
		req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		if req%requestKeepMod == 0 {
			t.record(t.newID(), parent, req, "service.handler", start, end)
		}
	})
}
