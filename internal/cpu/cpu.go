// Package cpu is the timing substrate standing in for SimpleScalar's
// sim-outorder (Sec. 6, Table 1): a timestamp-based out-of-order core
// model with a 4-wide front end, a 64-entry RUU, a 16-entry LSQ, the
// Table 1 functional-unit pool, and — the part the paper's Fig. 10 hinges
// on — an L1 data cache with one read port and one write port whose
// contention is modeled cycle-accurately:
//
//   - loads occupy the read port;
//   - stores occupy the write port;
//   - a CPPC store to a dirty word *steals* a read-port cycle for its
//     read-before-write: the store does not wait for it (Sec. 3.1's
//     store-buffer/scheduler coordination), but later loads see the port
//     busy;
//   - a two-dimensional-parity store must *complete* its read-before-write
//     before writing, and a miss fill must first read the whole victim
//     line through the read port (Sec. 2) — both delay the pipeline.
//
// Instruction timestamps are computed in program order with in-order
// commit pressure from the RUU and LSQ, which reproduces the first-order
// behaviour of an event-driven OoO pipeline at a fraction of the cost.
package cpu

import (
	"context"
	"sync"

	"cppc/internal/protect"
	"cppc/internal/trace"
)

// Config mirrors the paper's Table 1 processor.
type Config struct {
	IssueWidth int // instructions per cycle
	RUUSize    int
	LSQSize    int

	IntALU, IntMul, FPALU, FPMul int

	BranchMissPenalty int // front-end flush cycles

	// SinglePorted merges the L1 read and write ports (the Sec. 7
	// future-work evaluation): every load, store, fill and
	// read-before-write contends for one port.
	SinglePorted bool

	FreqHz float64
}

// Table1Config returns the evaluated processor: 4-wide, RUU 64, LSQ 16,
// 4 int ALUs + 1 int mul, 4 FP ALUs + 1 FP mul, 3 GHz.
func Table1Config() Config {
	return Config{
		IssueWidth: 4, RUUSize: 64, LSQSize: 16,
		IntALU: 4, IntMul: 1, FPALU: 4, FPMul: 1,
		BranchMissPenalty: 12,
		FreqHz:            3e9,
	}
}

// latencies per op class (execute stage), in cycles.
func opLatency(op trace.Op) int {
	switch op {
	case trace.OpInt, trace.OpBranch:
		return 1
	case trace.OpIntMul:
		return 3
	case trace.OpFP:
		return 2
	case trace.OpFPMul:
		return 4
	default:
		return 1
	}
}

// fuPool models k identical units by tracking each unit's next-free cycle.
// The free list is a fixed inline array so the pools sit on the Core's own
// hot cache lines instead of the ring arena (Table 1's largest pool is 4
// units; fuPoolMax leaves headroom for ablations).
type fuPool struct {
	free [fuPoolMax]uint64
	n    int
}

const fuPoolMax = 8

// acquire reserves the earliest-available unit at or after t for d cycles,
// returning the start cycle.
func (p *fuPool) acquire(t uint64, d int) uint64 {
	best := 0
	for i := 1; i < p.n; i++ {
		if p.free[i] < p.free[best] {
			best = i
		}
	}
	start := t
	if p.free[best] > start {
		start = p.free[best]
	}
	p.free[best] = start + uint64(d)
	return start
}

// port models a single cache port as a next-free-cycle counter with a
// cycle-stealing side channel. Demand traffic (loads, 2D-parity
// read-before-writes) reserves slots and waits; CPPC's read-before-write
// *steals* slots: stolen work accumulates as debt that drains in the
// port's idle gaps (the Sec. 3.1 store-buffer/scheduler coordination) and
// only delays demand traffic once the store buffer backs up.
type port struct {
	free uint64 // next cycle free for demand traffic
	debt uint64 // pending stolen cycles
	cap  uint64 // store-buffer depth before stolen work stalls demand
}

// reserve takes the port at or after t for d cycles, returning the start.
// Idle gaps first drain stolen debt; overflowing debt stalls the demand
// access.
func (p *port) reserve(t uint64, d int) uint64 {
	if t > p.free {
		gap := t - p.free
		if p.debt <= gap {
			p.debt = 0
		} else {
			p.debt -= gap
		}
	}
	start := t
	if p.free > start {
		start = p.free
	}
	if p.cap > 0 && p.debt > p.cap {
		start += p.debt - p.cap
		p.debt = p.cap
	}
	p.free = start + uint64(d)
	return start
}

// steal queues d cycles of background work on the port without waiting.
func (p *port) steal(d int) { p.debt += uint64(d) }

// Result summarizes one run.
type Result struct {
	Instructions uint64
	Cycles       uint64
	CPI          float64
	Loads        uint64
	Stores       uint64
	Halted       bool // a DUE occurred
}

// Core runs instruction streams against a memory hierarchy behind a
// MemoryPort (a single-core controller stack or one core's view of a
// timed multiprocessor).
type Core struct {
	Cfg Config
	Mem MemoryPort // data-side hierarchy

	hitLat              int // cached Mem.HitLatency()
	readPort, writePort *port
	intALU, intMul      fuPool
	fpALU, fpMul        fuPool

	// The port state lives in the core (readPort/writePort alias these, or
	// both alias rp when SinglePorted) so a core costs one allocation.
	rp, wp port

	// arena is the pooled scratch the ring buffers and functional-unit
	// free lists are carved from; Release returns it (see coreArenas).
	arena *coreArena

	// completion times of recent instructions, for dependencies (ring).
	done []uint64
	// Index masks for the rings when their length is a power of two (the
	// Table 1 sizes all are); 0 selects the modulo fallback. The ring
	// lengths are not compile-time constants, so i%len would be a real
	// division on every instruction.
	doneMask, lsqMask uint64
	lsqRing           []uint64
	memIdx            uint64 // count of memory instructions (LSQ ring index)

	fetchReady uint64 // earliest fetch cycle for the next instruction
	slot       int    // issue slots used in the current fetch cycle

	// Scratch access result reused across instructions: passing a pointer
	// to a stack local through the MemoryPort interface would force a heap
	// allocation per memory instruction.
	acc protect.AccessResult

	// Optional instruction-side model (Table 1's 16KB L1I): the front end
	// fetches 4-byte instructions; crossing into a new 32-byte block costs
	// an I-cache access, and an I-miss stalls fetch.
	ic         *protect.Controller
	codeBytes  uint64
	pc         uint64
	regionBase uint64 // current hot function's entry
	lastIBlock uint64
	lcg        uint64 // deterministic branch-target scrambler
	icAccess   bool   // this instruction touched the I-cache (new block)

	// Batched instruction consumption (see RunCtx): the buffer lives on the
	// core so instructions drawn but not executed (a run that halts
	// mid-batch) are consumed by the next run instead of being lost, keeping
	// the stream the core executes identical to unbatched operation.
	srcBuf         []trace.Instr
	srcBufSrc      trace.Source
	srcPos, srcLen int
}

// doneRingMin is the floor for the dependency-tracking ring: every
// producer distance a trace can carry (trace.MaxDepDistance, which
// ParseTrace enforces and generated streams stay far below) reads its
// own producer's completion time, never a later instruction's. 128
// entries (1KB) keep the ring resident in the host L1 cache, where the
// previous 4096-entry ring (32KB per core) thrashed it.
const doneRingMin = trace.MaxDepDistance

// doneRingLen sizes the done ring: a power of two strictly larger than
// RUUSize, so the RUU occupancy check can read instruction i-RUUSize's
// completion time straight out of the done ring (entry not yet
// overwritten) and the core needs no separate RUU ring.
func doneRingLen(cfg Config) int {
	n := doneRingMin
	for n <= cfg.RUUSize {
		n <<= 1
	}
	return n
}

// coreArena is one core's pooled scratch: a single uint64 backing array
// carved into the rings and functional-unit free lists, plus the trace
// refill buffer and, once a read-ahead cluster has run the core, its
// read-ahead ring. Arenas are recycled per Config (coreArenas) so a
// sweep of same-shaped cells pays the ~40KB of ring allocations, and the
// 32KB read-ahead ring, once.
type coreArena struct {
	words  []uint64
	srcBuf []trace.Instr
	ahead  []trace.Instr
}

var coreArenas sync.Map // Config -> *sync.Pool of *coreArena

func arenaWords(cfg Config) int {
	return doneRingLen(cfg) + cfg.LSQSize
}

// NewCoreWithPort wires a core to any MemoryPort implementation.
func NewCoreWithPort(cfg Config, mem MemoryPort) *Core {
	ringMask := func(n int) uint64 {
		if n > 0 && n&(n-1) == 0 {
			return uint64(n - 1)
		}
		return 0
	}
	c := &Core{
		Cfg: cfg, Mem: mem, hitLat: mem.HitLatency(),
		doneMask: ringMask(doneRingLen(cfg)), lsqMask: ringMask(cfg.LSQSize),
		rp: port{cap: 2}, // a small store buffer absorbs stolen reads
		wp: port{cap: 8},
	}
	c.readPort, c.writePort = &c.rp, &c.wp
	if cfg.SinglePorted {
		c.writePort = &c.rp // all traffic through one port
	}
	var a *coreArena
	if p, ok := coreArenas.Load(cfg); ok {
		a, _ = p.(*sync.Pool).Get().(*coreArena)
	}
	if a == nil {
		a = &coreArena{words: make([]uint64, arenaWords(cfg)), srcBuf: make([]trace.Instr, 256)}
	} else {
		// A zeroed arena is indistinguishable from a fresh one: the rings
		// are only read at indices already written this run, but the
		// functional-unit free lists hold absolute cycles and must reset.
		clear(a.words)
	}
	w := a.words
	carve := func(n int) []uint64 {
		s := w[:n:n]
		w = w[n:]
		return s
	}
	c.done = carve(doneRingLen(cfg))
	c.lsqRing = carve(cfg.LSQSize)
	for _, p := range []struct {
		pool *fuPool
		n    int
	}{{&c.intALU, cfg.IntALU}, {&c.intMul, cfg.IntMul}, {&c.fpALU, cfg.FPALU}, {&c.fpMul, cfg.FPMul}} {
		if p.n > fuPoolMax {
			panic("cpu: functional-unit pool exceeds fuPoolMax")
		}
		p.pool.n = p.n
	}
	c.arena = a
	c.srcBuf = a.srcBuf
	return c
}

// aheadBuf returns the storage of the core's read-ahead ring, allocated
// the first time the arena serves one.
func (c *Core) aheadBuf() []trace.Instr {
	if c.arena.ahead == nil {
		c.arena.ahead = make([]trace.Instr, aheadBlocks*aheadBlock)
	}
	return c.arena.ahead
}

// Release returns the core's scratch arena to the per-Config pool for
// reuse by a future NewCoreWithPort. The core must not run afterwards.
func (c *Core) Release() {
	if c.arena == nil {
		return
	}
	p, _ := coreArenas.LoadOrStore(c.Cfg, new(sync.Pool))
	p.(*sync.Pool).Put(c.arena)
	c.arena, c.srcBuf = nil, nil
	c.done, c.lsqRing = nil, nil
}

// Ring index helpers: a mask when the ring length is a power of two, a
// division otherwise.
func (c *Core) doneIdx(i uint64) uint64 {
	if c.doneMask != 0 {
		return i & c.doneMask
	}
	return i % uint64(len(c.done))
}

func (c *Core) lsqIdx(i uint64) uint64 {
	if c.lsqMask != 0 {
		return i & c.lsqMask
	}
	return i % uint64(len(c.lsqRing))
}

// cancelPollInstrs is how often RunCtx polls its context: rarely enough
// that the check costs nothing against the per-instruction model, often
// enough that multi-million-instruction runs abort within microseconds.
const cancelPollInstrs = 4096

// RunCtx executes n instructions from src (a synthetic generator or a
// recorded trace) and returns timing results. The context is polled
// every few thousand instructions, and on cancellation the partial
// result accumulated so far is returned alongside the context's error.
func (c *Core) RunCtx(ctx context.Context, src trace.Source, n int) (Result, error) {
	var res Result
	var lastDone uint64
	var err error
	// Batch-capable sources are consumed through the core's refill buffer,
	// replacing one interface call per instruction with one per 256. Refills
	// never ask for more than the n requested here, and leftovers (a halt
	// mid-batch) carry over to the next run on this core, so the core
	// executes its stream in order whatever the runs' lengths. A source
	// may still be drawn ahead of the core: a read-ahead cluster owns its
	// cores' sources and hands each core a ring its producers fill (see
	// Cluster.SetWorkers).
	bs, _ := src.(trace.BatchSource)
	if src != c.srcBufSrc {
		c.srcBufSrc = src
		c.srcPos, c.srcLen = 0, 0
	}
	executed := uint64(n)
	for i := uint64(0); i < uint64(n); i++ {
		if i%cancelPollInstrs == 0 {
			if cerr := ctx.Err(); cerr != nil {
				err = cerr
				executed = i
				break
			}
		}
		var in *trace.Instr
		if bs != nil {
			if c.srcPos == c.srcLen {
				want := uint64(len(c.srcBuf))
				if rem := uint64(n) - i; rem < want {
					want = rem
				}
				c.srcLen = bs.NextBatch(c.srcBuf[:want])
				c.srcPos = 0
			}
			in = &c.srcBuf[c.srcPos]
			c.srcPos++
		} else {
			c.srcBuf[0] = src.Next()
			in = &c.srcBuf[0]
		}
		c.icAccess = false
		t := c.dispatch(i, in)
		done := c.execute(i, in, t, &res)
		c.done[c.doneIdx(i)] = done
		if done > lastDone {
			lastDone = done
		}
		// Halted can only flip inside a memory interaction — LoadInto,
		// StoreInto, or an I-cache refill (the planning probes never run
		// the fault checker) — so after a pure ALU/branch instruction the
		// poll would re-read the state already checked at the previous
		// memory instruction. Skipping it there breaks at the exact same
		// instruction the per-instruction poll would.
		if (in.Op == trace.OpLoad || in.Op == trace.OpStore || c.icAccess) && c.Mem.Halted() {
			// The halting instruction itself executed (it raised the DUE);
			// everything after it did not. Leaving executed at n here would
			// overstate instructions and understate CPI in every
			// fault-injection run that halts.
			res.Halted = true
			executed = i + 1
			break
		}
	}
	res.Instructions = executed
	res.Cycles = lastDone
	if res.Instructions > 0 {
		res.CPI = float64(res.Cycles) / float64(res.Instructions)
	}
	return res, err
}

// SetICache attaches an instruction cache to the front end. codeBytes is
// the static code footprint branch targets scatter over.
func (c *Core) SetICache(ic *protect.Controller, codeBytes int) {
	c.ic = ic
	c.codeBytes = uint64(codeBytes)
	c.lastIBlock = ^uint64(0)
	c.lcg = 0x9e3779b97f4a7c15
}

// fetchInstruction models the instruction-side access for one dynamic
// instruction and charges any I-miss latency to the front end.
func (c *Core) fetchInstruction(in *trace.Instr) {
	if c.ic == nil {
		return
	}
	const hotFnBytes = 1024 // hot-function size: near branches stay inside
	c.pc += 4
	if in.Op == trace.OpBranch {
		// Roughly half of branches are taken. Most taken branches are
		// loops within the current hot function; a few are far calls to
		// another hot function. Deterministic (no wall-clock randomness).
		c.lcg = c.lcg*6364136223846793005 + 1442695040888963407
		if c.lcg&1 == 0 {
			if (c.lcg>>1)&0xf != 0 {
				// Loop: anywhere inside the current function.
				c.pc = c.regionBase + ((c.lcg>>16)%hotFnBytes)&^3
			} else {
				// Far call: one of 8 hot functions, staggered so they do
				// not alias at power-of-two strides in a direct-mapped
				// I-cache.
				region := (c.lcg >> 8) % 8
				c.regionBase = (region*(c.codeBytes/8) + region*2056) % c.codeBytes
				c.pc = c.regionBase
			}
		}
	}
	if c.pc >= c.codeBytes {
		c.pc = c.regionBase
	}
	iblock := c.pc &^ 31
	if iblock == c.lastIBlock {
		return
	}
	c.lastIBlock = iblock
	c.icAccess = true
	res := c.ic.Load(iblock, c.fetchReady)
	if !res.Hit {
		// The front end stalls for the refill.
		c.fetchReady += uint64(res.Latency)
		c.slot = 0
	}
}

// dispatch computes the cycle at which instruction i can begin execution,
// honoring fetch width, RUU/LSQ occupancy and data dependencies.
func (c *Core) dispatch(i uint64, in *trace.Instr) uint64 {
	c.fetchInstruction(in)
	// Fetch-width constraint: IssueWidth instructions per cycle.
	if c.slot == c.Cfg.IssueWidth {
		c.fetchReady++
		c.slot = 0
	}
	c.slot++
	t := c.fetchReady

	// RUU occupancy: instruction i-RUUSize must have drained. Its
	// completion time is still live in the done ring (the ring is sized
	// strictly larger than RUUSize), so no separate RUU ring is needed.
	if ruu := uint64(c.Cfg.RUUSize); i >= ruu {
		if d := c.done[c.doneIdx(i-ruu)]; d > t {
			t = d
		}
	}
	// LSQ occupancy for memory ops.
	if in.Op == trace.OpLoad || in.Op == trace.OpStore {
		if c.memIdx >= uint64(len(c.lsqRing)) {
			if d := c.lsqRing[c.lsqIdx(c.memIdx)]; d > t {
				t = d
			}
		}
	}
	// Data dependencies.
	if dep := in.Dep1; dep > 0 && uint64(dep) <= i {
		if d := c.done[c.doneIdx(i-uint64(dep))]; d > t {
			t = d
		}
	}
	if dep := in.Dep2; dep > 0 && uint64(dep) <= i {
		if d := c.done[c.doneIdx(i-uint64(dep))]; d > t {
			t = d
		}
	}
	return t
}

// execute models the execute/memory stage and returns completion time.
func (c *Core) execute(i uint64, in *trace.Instr, t uint64, res *Result) uint64 {
	var done uint64
	switch in.Op {
	case trace.OpLoad:
		res.Loads++
		// A 2D-parity miss must read the victim line out through the read
		// port before the fill (Sec. 2).
		start := c.readPort.reserve(t, 1+c.Mem.PlanLoadMiss(in.Addr))
		c.acc = protect.AccessResult{}
		r := &c.acc
		c.Mem.LoadInto(in.Addr, start, r)
		if !r.Hit {
			// The refill occupies the write port once it returns.
			c.writePort.steal(1)
		}
		done = start + uint64(r.Latency)
		c.lsqRing[c.lsqIdx(c.memIdx)] = done
		c.memIdx++
	case trace.OpStore:
		res.Stores++
		// Stores drain from the store buffer after commit: their port
		// activity does not lengthen the instruction's completion, but it
		// does occupy the ports (delaying loads) and the LSQ entry stays
		// allocated until the store drains (backpressure).
		drain := t
		needsWait, rbwWords := c.Mem.PlanStore(in.Addr)
		if rbwWords > 0 {
			if needsWait {
				// Two-dimensional parity: the write cannot start until
				// its read-before-write completes on the read port.
				drain = c.readPort.reserve(drain, rbwWords) + uint64(rbwWords)
			} else {
				// CPPC: cycle stealing — queue the read, don't wait.
				c.readPort.steal(rbwWords)
			}
		}
		drain = c.writePort.reserve(drain, 1)
		c.acc = protect.AccessResult{}
		r := &c.acc
		// The stored value is arbitrary for timing, but its temporal
		// locality matters to the silent-store literature: real programs
		// rewrite the resident value on a large fraction of stores. An
		// address-keyed value that only advances every 64 instructions
		// makes quick re-stores of the same location silent (the
		// store-rehit traffic), while leaving every timing, fold and CPI
		// statistic untouched — no counted event depends on data values.
		c.Mem.StoreInto(in.Addr, in.Addr^(i>>6), drain, r)
		done = t + 1
		c.lsqRing[c.lsqIdx(c.memIdx)] = drain + uint64(r.Latency-c.hitLat) + 1
		c.memIdx++
	case trace.OpBranch:
		start := c.intALU.acquire(t, 1)
		done = start + 1
		if in.Mispredict {
			// Flush: the front end restarts after the penalty.
			if nf := done + uint64(c.Cfg.BranchMissPenalty); nf > c.fetchReady {
				c.fetchReady = nf
				c.slot = 0
			}
		}
	case trace.OpInt:
		start := c.intALU.acquire(t, 1)
		done = start + uint64(opLatency(in.Op))
	case trace.OpIntMul:
		start := c.intMul.acquire(t, opLatency(in.Op))
		done = start + uint64(opLatency(in.Op))
	case trace.OpFP:
		start := c.fpALU.acquire(t, 1)
		done = start + uint64(opLatency(in.Op))
	case trace.OpFPMul:
		start := c.fpMul.acquire(t, opLatency(in.Op))
		done = start + uint64(opLatency(in.Op))
	}
	return done
}

// The store/load port-usage planning (read-before-write word counts,
// victim-line reads) lives with the protection controller — see
// protect.Controller.PlanStoreRBW and PlanLoadVictimRead — so that every
// MemoryPort implementation shares one definition.
