package protect

// Port-usage planning: the timing core needs to know, *before* a store
// executes, whether it must wait for a read-before-write and how many
// read-port slots the access books. The answers depend on scheme policy
// and cache state (hit/miss, granule dirtiness, victim validity), so the
// planner asks the scheme's own read-before-write rules — the ones the
// controller follows when the access runs.

// PlanStoreRBW inspects the cache state to predict a store's
// read-before-write behaviour: whether the store must wait for the read
// to complete and how many read-port word-slots it needs. A scheme whose
// fills read the victim line (two-dimensional parity, Sec. 2) keeps a
// whole-cache row that every write must read first, so its store waits
// for that read, and a miss additionally books the victim read. Any other
// store whose scheme needs the old data (CPPC on a dirty granule,
// Sec. 3.1) steals one slot but does not wait.
func (ct *Controller) PlanStoreRBW(addr uint64) (wait bool, words int) {
	set, way := ct.C.Probe(addr)
	if ct.Scheme.FillNeedsOldLine() {
		// The data array reads a whole row per access, so the victim read
		// is one extra port cycle (its energy is a full line, accounted in
		// Stats.RBWOnMissLines).
		if way < 0 && ct.C.Line(set, ct.C.Victim(set)).Valid {
			return true, 2
		}
		return true, 1
	}
	if way >= 0 {
		_, _, word := ct.C.Decompose(addr)
		if ct.Scheme.StoreNeedsOldData(set, way, ct.C.GranuleOf(word)) {
			return false, 1
		}
	}
	return false, 0
}

// PlanLoadVictimRead returns the extra read-port cycles a load at addr
// needs before its access: a scheme whose fills read the victim line
// reads it out through the read port on a miss.
func (ct *Controller) PlanLoadVictimRead(addr uint64) int {
	if !ct.Scheme.FillNeedsOldLine() {
		return 0
	}
	set, way := ct.C.Probe(addr)
	if way >= 0 {
		return 0
	}
	if ct.C.Line(set, ct.C.Victim(set)).Valid {
		return 1 // one wide array read of the victim line
	}
	return 0
}
