package coherence

import "cppc/internal/protect"

// Timing prices the protocol events of the bus/directory. All costs are
// in core cycles. The zero value is the untimed protocol (every event
// free), which keeps the functional golden-map tests exact.
type Timing struct {
	// BusCycles is the bus/directory occupancy of one transaction
	// (BusRead or BusReadX): arbitration plus the address phase.
	BusCycles int
	// OwnerFlushCycles is the extra cost when a remote Modified copy must
	// be written back first (M->S downgrade on a read, or the writeback
	// half of invalidating an owner).
	OwnerFlushCycles int
	// InvalidateCycles is the per-copy cost of killing a remote sharer
	// (snoop lookup and acknowledgement).
	InvalidateCycles int
}

// DefaultTiming is the Sec. 7 model: a short split-transaction bus next
// to the shared L2, an owner flush priced like an L1-to-L2 writeback, and
// cheap invalidation acks.
func DefaultTiming() Timing {
	return Timing{BusCycles: 4, OwnerFlushCycles: 10, InvalidateCycles: 2}
}

// busAcquire reserves the bus for d cycles starting no earlier than now
// (FCFS) and returns the total added latency: queueing delay plus d.
func (m *Multiprocessor) busAcquire(now uint64, d int) int {
	start := now
	if m.busFree > start {
		start = m.busFree
	}
	m.busFree = start + uint64(d)
	m.Stats.BusBusyCycles += uint64(d)
	return int(start-now) + d
}

// busExtend keeps the bus busy for d more cycles of the transaction in
// flight (owner flush, invalidation acks) and returns d.
func (m *Multiprocessor) busExtend(d int) int {
	m.busFree += uint64(d)
	m.Stats.BusBusyCycles += uint64(d)
	return d
}

// CorePort is one core's view of the shared hierarchy. It satisfies the
// cpu.MemoryPort seam, so an OoO timing core drives the coherent
// multiprocessor exactly the way a single-core run drives its private
// controller stack — same read-port-steal contention model on top.
type CorePort struct {
	m    *Multiprocessor
	core int
}

// CorePort returns core i's port.
func (m *Multiprocessor) CorePort(i int) CorePort { return CorePort{m: m, core: i} }

func (p CorePort) LoadInto(addr, now uint64, res *protect.AccessResult) {
	p.m.ReadInto(p.core, addr, now, res)
}

func (p CorePort) StoreInto(addr, val, now uint64, res *protect.AccessResult) {
	p.m.WriteInto(p.core, addr, val, now, res)
}

func (p CorePort) PlanStore(addr uint64) (bool, int) { return p.m.L1s[p.core].PlanStoreRBW(addr) }
func (p CorePort) PlanLoadMiss(addr uint64) int      { return p.m.L1s[p.core].PlanLoadVictimRead(addr) }
func (p CorePort) HitLatency() int                   { return p.m.L1s[p.core].C.Cfg.HitLatencyCycles }
func (p CorePort) Halted() bool                      { return p.m.L1s[p.core].Halted || p.m.L2.Halted }

// ResetStats clears every counter after warm-up so a measurement window
// starts clean: each cache level's statistics, occupancy sampling and
// scheme event counters (protect.Controller.ResetStats), the protocol
// statistics and the memory traffic counters. Bus reservations are
// cycle-absolute and deliberately not reset.
func (m *Multiprocessor) ResetStats() {
	m.Stats = Stats{}
	for _, l1 := range m.L1s {
		l1.ResetStats()
	}
	m.L2.ResetStats()
	m.Mem.Fetches, m.Mem.WriteBacks = 0, 0
}

// PeekWord returns the globally newest value of the word at addr without
// perturbing any cache state: the owner's dirty copy wins, then any clean
// L1 copy, then the L2, then memory. Checker use only.
func (m *Multiprocessor) PeekWord(addr uint64) uint64 {
	if e, ok := m.lookup(addr); ok && e.owner >= 0 {
		if v, ok := m.L1s[e.owner].C.PeekWord(addr); ok {
			return v
		}
	}
	for _, l1 := range m.L1s {
		if v, ok := l1.C.PeekWord(addr); ok {
			return v
		}
	}
	if v, ok := m.L2.C.PeekWord(addr); ok {
		return v
	}
	return m.Mem.ReadWord(addr)
}
