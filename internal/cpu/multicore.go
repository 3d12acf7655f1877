package cpu

import (
	"context"
	"errors"
	"slices"
	"sync"

	"cppc/internal/trace"
)

// DefaultQuantum is the lock-step scheduling quantum: how many
// instructions each core advances before the next core gets the machine.
// It matches the trace refill batch, and keeping it small bounds how far
// one core's view of the shared hierarchy can run ahead of another's.
const DefaultQuantum = 256

// Cluster drives N OoO cores in lock step, one trace stream per core.
// The cores share whatever hierarchy their MemoryPorts expose (for the
// Sec. 7 experiments, per-core views of a timed coherence.Multiprocessor);
// the round-robin order is fixed, so a run is deterministic for a given
// set of (port, source) pairs — with or without read-ahead (SetWorkers).
type Cluster struct {
	Cores []*Core
	srcs  []trace.Source

	workers int
	// rings are the cores' read-ahead buffers, created by the first run
	// with producers. From then on each ring owns its core's source and
	// is the source the core reads, so blocks drawn ahead in one run are
	// read in the next.
	rings []ring
}

// NewCluster builds one core per (port, source) pair, all with the same
// pipeline configuration.
func NewCluster(cfg Config, ports []MemoryPort, srcs []trace.Source) (*Cluster, error) {
	if len(ports) == 0 || len(ports) != len(srcs) {
		return nil, errors.New("cpu: cluster needs exactly one trace source per memory port")
	}
	cl := &Cluster{srcs: slices.Clone(srcs)}
	for _, p := range ports {
		cl.Cores = append(cl.Cores, NewCoreWithPort(cfg, p))
	}
	return cl, nil
}

// SetWorkers sizes the read-ahead of subsequent runs: with n >= 2, up to
// n-1 producer goroutines draw every core's stream ahead of execution
// while the cores execute on the caller's goroutine. n <= 1 (the
// default) draws trace inline. Results are bit-identical for every n —
// the knob trades wall clock, never output — so callers may size it from
// transient facts (idle pool workers) without perturbing cached results.
func (cl *Cluster) SetWorkers(n int) { cl.workers = n }

// Release returns every core's scratch arena, read-ahead rings included,
// to the construction pool (see Core.Release). The cluster must not run
// afterwards; instructions still drawn ahead are discarded.
func (cl *Cluster) Release() {
	for _, c := range cl.Cores {
		c.Release()
	}
	cl.rings = nil
}

// MulticoreResult aggregates a lock-step run.
type MulticoreResult struct {
	PerCore      []Result
	Instructions uint64  // summed across cores
	Cycles       uint64  // wall clock: max completion cycle over cores
	CPI          float64 // Cycles over instructions-per-core
	Halted       bool    // a DUE stopped some core (the cluster stops with it)
}

// RunCtx runs n instructions on every core, advancing round-robin in
// quanta (quantum <= 0 selects DefaultQuantum). Cycle timestamps are
// absolute and carry across calls, so warm-up and measurement phases can
// be separate calls with the cycle delta taken by the caller. If any core
// halts on an unrecoverable fault the whole cluster stops.
//
// With SetWorkers(>= 2) the run reads ahead: producers draw each core's
// stream into its ring while the cores execute one quantum at a time in
// core order, so every memory interaction (coherence, bus, a shared
// level) happens in exactly the workerless order and the output is
// bit-identical to it. The producers stop before RunCtx returns,
// cancelled or not; what they drew ahead stays in the rings for the next
// run.
func (cl *Cluster) RunCtx(ctx context.Context, n, quantum int) (MulticoreResult, error) {
	if quantum <= 0 {
		quantum = DefaultQuantum
	}
	if producers := min(cl.workers-1, len(cl.Cores)); producers > 0 {
		defer cl.readAhead(producers)()
	}
	res := MulticoreResult{PerCore: make([]Result, len(cl.Cores))}
	var err error
	remaining := n
outer:
	for remaining > 0 && !res.Halted {
		step := min(quantum, remaining)
		for i, c := range cl.Cores {
			r, rerr := c.RunCtx(ctx, cl.srcs[i], step)
			mergeCore(&res, i, r)
			if rerr != nil {
				err = rerr
				break outer
			}
		}
		remaining -= step
	}
	finalize(&res, len(cl.Cores))
	return res, err
}

// mergeCore folds one core's quantum result into the aggregate, in core
// order.
func mergeCore(res *MulticoreResult, i int, r Result) {
	pc := &res.PerCore[i]
	pc.Instructions += r.Instructions
	if r.Cycles > pc.Cycles {
		pc.Cycles = r.Cycles
	}
	pc.Loads += r.Loads
	pc.Stores += r.Stores
	if r.Halted {
		pc.Halted = true
		res.Halted = true
	}
}

// finalize derives the per-core and aggregate CPI columns.
func finalize(res *MulticoreResult, cores int) {
	for i := range res.PerCore {
		pc := &res.PerCore[i]
		if pc.Instructions > 0 {
			pc.CPI = float64(pc.Cycles) / float64(pc.Instructions)
		}
		res.Instructions += pc.Instructions
		if pc.Cycles > res.Cycles {
			res.Cycles = pc.Cycles
		}
	}
	if perCore := res.Instructions / uint64(cores); perCore > 0 {
		res.CPI = float64(res.Cycles) / float64(perCore)
	}
}

// Read-ahead. A run with producers gives every core a ring of
// aheadBlocks blocks in place of its source. Each producer goroutine
// serves a lane, every P-th core's ring: it draws the core's stream into
// the ring's free blocks in stream order, emptiest ring first, while the
// core reads the filled blocks in the same order and frees each one it
// has read through. A core therefore executes exactly the instructions
// it would have drawn itself, in the same order; read-ahead changes when
// a stream is drawn, never what runs.
const (
	aheadBlock  = 2 * DefaultQuantum // instructions per ring block
	aheadBlocks = 4                  // blocks per core ring
)

// ring is one core's read-ahead buffer. It owns the core's source.
type ring struct {
	src  trace.Source
	buf  []trace.Instr // aheadBlocks blocks, from the core's arena
	lane *lane         // the running lane that fills this ring; nil between runs

	// Guarded by lane.mu while a lane runs.
	head   int // the block the core holds or reads next
	filled int // blocks drawn and not yet freed, head's included

	// The core's side: whether it holds the head block, and its read
	// position in it.
	held     bool
	pos, end int
}

// lane is one producer's share of a run, under one lock.
type lane struct {
	mu     sync.Mutex
	work   sync.Cond // the producer sleeps here while every ring is full
	ready  sync.Cond // the core sleeps here on an empty ring
	rings  []*ring
	free   int   // unfilled blocks across the rings
	idle   bool  // the producer sleeps on work
	waitOn *ring // the empty ring the core sleeps on, if any
	stop   bool
}

// readAhead starts the given number of producer goroutines, deals the
// cores' rings over them, and returns the function that stops and joins
// them.
func (cl *Cluster) readAhead(producers int) (stop func()) {
	if cl.rings == nil {
		cl.rings = make([]ring, len(cl.Cores))
		for i, c := range cl.Cores {
			cl.rings[i] = ring{src: cl.srcs[i], buf: c.aheadBuf()}
			cl.srcs[i] = &cl.rings[i]
		}
	}
	lanes := make([]lane, producers)
	for i := range cl.rings {
		r, l := &cl.rings[i], &lanes[i%producers]
		l.rings = append(l.rings, r)
		l.free += aheadBlocks - r.filled
		r.lane = l
	}
	var wg sync.WaitGroup
	for i := range lanes {
		l := &lanes[i]
		l.work.L, l.ready.L = &l.mu, &l.mu
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.produce()
		}()
	}
	return func() {
		for i := range lanes {
			l := &lanes[i]
			l.mu.Lock()
			l.stop = true
			l.work.Signal()
			l.mu.Unlock()
		}
		wg.Wait()
		for i := range cl.rings {
			cl.rings[i].lane = nil
		}
	}
}

// produce fills the lane's rings, emptiest first, until stopped. With
// every ring full it sleeps until the core has freed half the lane's
// blocks or waits on an empty ring, so a producer wakes once per few
// quanta rather than once per block.
func (l *lane) produce() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for !l.stop {
		var r *ring
		for _, c := range l.rings {
			if c.filled < aheadBlocks && (r == nil || c.filled < r.filled) {
				r = c
			}
		}
		if r == nil {
			l.idle = true
			l.work.Wait()
			l.idle = false
			continue
		}
		b := (r.head + r.filled) % aheadBlocks
		l.mu.Unlock()
		draw(r.src, r.buf[b*aheadBlock:(b+1)*aheadBlock])
		l.mu.Lock()
		r.filled++
		l.free--
		if l.waitOn == r {
			l.ready.Signal()
		}
	}
}

// NextBatch implements trace.BatchSource for the ring's core.
func (r *ring) NextBatch(dst []trace.Instr) int {
	n := len(dst)
	for len(dst) > 0 {
		if r.pos == r.end && !r.advance() {
			// No run is producing and the ring is drained: the core
			// draws the rest itself.
			draw(r.src, dst)
			break
		}
		k := copy(dst, r.buf[r.pos:r.end])
		r.pos += k
		dst = dst[k:]
	}
	return n
}

// Next implements trace.Source.
func (r *ring) Next() trace.Instr {
	var buf [1]trace.Instr
	r.NextBatch(buf[:])
	return buf[0]
}

// advance frees the block the core has read through and holds the next
// one, waiting for the lane's producer while the ring is empty. Between
// runs no producer fills the ring, and advance reports false once it is
// drained.
func (r *ring) advance() bool {
	l := r.lane
	if l == nil {
		r.release()
		if r.filled == 0 {
			return false
		}
		r.hold()
		return true
	}
	l.mu.Lock()
	if r.release() {
		l.free++
		if l.idle && 2*l.free >= len(l.rings)*aheadBlocks {
			l.work.Signal()
		}
	}
	for r.filled == 0 {
		if l.idle {
			l.work.Signal()
		}
		l.waitOn = r
		l.ready.Wait()
		l.waitOn = nil
	}
	l.mu.Unlock()
	r.hold()
	return true
}

// release frees the held block, reporting whether there was one.
func (r *ring) release() bool {
	if !r.held {
		return false
	}
	r.held = false
	r.head = (r.head + 1) % aheadBlocks
	r.filled--
	return true
}

// hold starts the core reading the head block.
func (r *ring) hold() {
	r.held = true
	r.pos = r.head * aheadBlock
	r.end = r.pos + aheadBlock
}

// draw fills dst with the next len(dst) instructions of src.
func draw(src trace.Source, dst []trace.Instr) {
	if bs, ok := src.(trace.BatchSource); ok {
		bs.NextBatch(dst)
		return
	}
	for i := range dst {
		dst[i] = src.Next()
	}
}
