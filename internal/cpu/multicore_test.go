package cpu

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"cppc/internal/core"
	"cppc/internal/trace"
)

// buildPrivateCluster assembles n cores, each over its own Table 1
// stack, with per-core deterministic trace streams.
func buildPrivateCluster(t *testing.T, n int) (*Cluster, []*System) {
	t.Helper()
	prof := gzipProfile()
	ports := make([]MemoryPort, n)
	srcs := make([]trace.Source, n)
	systems := make([]*System, n)
	for i := 0; i < n; i++ {
		sys := NewSystem(CPPCFactory(core.DefaultL1Config()), Parity1DFactory())
		systems[i] = sys
		ports[i] = sys.Port()
		srcs[i] = prof.NewGen(7 + int64(i))
	}
	cl, err := NewCluster(Table1Config(), ports, srcs)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	return cl, systems
}

// runCluster runs n instructions on every core of cl, failing t on
// error.
func runCluster(t *testing.T, cl *Cluster, n, quantum int) MulticoreResult {
	t.Helper()
	res, err := cl.RunCtx(context.Background(), n, quantum)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestClusterParallelBitIdentical is the race-job determinism gate: a
// Cluster run whose producers read every core's trace ahead must be
// bit-identical to the workerless run — same MulticoreResult, same final
// hierarchy state — for N ∈ {1, 2, 4} cores and several worker counts.
// CI runs this under -race with GOMAXPROCS 1 (cooperative scheduling)
// and 4 (true concurrency).
func TestClusterParallelBitIdentical(t *testing.T) {
	const instrs, quantum = 6_000, 0
	for _, n := range []int{1, 2, 4} {
		serial, serialSys := buildPrivateCluster(t, n)
		serialRes := runCluster(t, serial, instrs, quantum)
		serialStats := make([]interface{}, n)
		for i, sys := range serialSys {
			serialStats[i] = sys.L1().Stats
		}

		for _, workers := range []int{2, 4, 7} {
			par, parSys := buildPrivateCluster(t, n)
			par.SetWorkers(workers)
			parRes := runCluster(t, par, instrs, quantum)
			if !reflect.DeepEqual(serialRes, parRes) {
				t.Errorf("cores=%d workers=%d: parallel result diverged\nserial:   %+v\nparallel: %+v",
					n, workers, serialRes, parRes)
			}
			for i, sys := range parSys {
				if !reflect.DeepEqual(serialStats[i], sys.L1().Stats) {
					t.Errorf("cores=%d workers=%d: core %d L1 stats diverged\nserial:   %+v\nparallel: %+v",
						n, workers, i, serialStats[i], sys.L1().Stats)
				}
				sys.Release()
			}
			par.Release()
		}
		for _, sys := range serialSys {
			sys.Release()
		}
		serial.Release()
	}
}

// readAheadCases are the worker counts the read-ahead contract tests
// hold against a serial cluster: one producer serving every core, and
// three producers sharing them.
var readAheadCases = []int{2, 4}

// drawnAhead counts the instructions a ring holds that its core has not
// read yet.
func drawnAhead(r *ring) int {
	if !r.held {
		return r.filled * aheadBlock
	}
	return r.end - r.pos + (r.filled-1)*aheadBlock
}

// TestClusterReadAheadCarriesOver runs a warm-up and a measurement as two
// RunCtx calls of lengths that end mid-block, then a third run with the
// read-ahead switched off, and holds every run to a serial cluster doing
// the same. Blocks drawn ahead in one run must be read, in order, by the
// next, and the serial run after them must drain the rings before
// drawing from the source again. The measurement's quantum is longer
// than a ring, so a core empties its ring while the others' are full:
// the producer must wake for it rather than wait for half its lane to
// free up.
func TestClusterReadAheadCarriesOver(t *testing.T) {
	const cores = 4
	runs := []struct{ n, quantum int }{{1_337, 0}, {4_321, 3_000}, {999, 0}}
	serial, serialSys := buildPrivateCluster(t, cores)
	var want []MulticoreResult
	for _, r := range runs {
		want = append(want, runCluster(t, serial, r.n, r.quantum))
	}
	for _, workers := range readAheadCases {
		cl, sys := buildPrivateCluster(t, cores)
		for k, r := range runs {
			if k == len(runs)-1 {
				cl.SetWorkers(1)
			} else {
				cl.SetWorkers(workers)
			}
			got := runCluster(t, cl, r.n, r.quantum)
			if !reflect.DeepEqual(want[k], got) {
				t.Errorf("workers=%d run %d: diverged from serial\nserial:     %+v\nread-ahead: %+v", workers, k, want[k], got)
			}
			if k == 0 {
				for i := range cl.rings {
					if drawnAhead(&cl.rings[i]) == 0 {
						t.Errorf("workers=%d: core %d had nothing drawn ahead after the warm-up", workers, i)
					}
				}
			}
		}
		for i := range sys {
			if !reflect.DeepEqual(serialSys[i].L1().Stats, sys[i].L1().Stats) {
				t.Errorf("workers=%d: core %d L1 stats diverged", workers, i)
			}
			sys[i].Release()
		}
		cl.Release()
	}
	for _, s := range serialSys {
		s.Release()
	}
	serial.Release()
}

// buildHaltingCluster assembles cores over parity-1d stacks whose L1s
// carry an armed stuck-at plane: parity detects a stuck bit in a dirty
// granule but cannot correct it, so the run halts on a DUE.
func buildHaltingCluster(t *testing.T, cores int) (*Cluster, []*System) {
	t.Helper()
	prof := gzipProfile()
	ports := make([]MemoryPort, cores)
	srcs := make([]trace.Source, cores)
	systems := make([]*System, cores)
	for i := range systems {
		sys := NewSystem(Parity1DFactory(), Parity1DFactory())
		c := sys.L1().C
		c.ArmPlane(99 + int64(i))
		for s := 0; s < c.Sets(); s += 3 {
			bit := uint64(1) << (s % 64)
			c.AddStuckFault(s, s%c.Ways(), s%c.BlockWords(), bit, bit)
		}
		systems[i] = sys
		ports[i] = sys.Port()
		srcs[i] = prof.NewGen(21 + int64(i))
	}
	cl, err := NewCluster(Table1Config(), ports, srcs)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	return cl, systems
}

// TestClusterReadAheadHalt holds a run that halts on a DUE mid-quantum,
// and the run after it, which starts on the halted core's leftover
// instructions, to the serial cluster: the same Instructions, Cycles and
// Halted, core by core.
func TestClusterReadAheadHalt(t *testing.T) {
	const cores, n = 3, 60_000
	serial, serialSys := buildHaltingCluster(t, cores)
	want := []MulticoreResult{runCluster(t, serial, n, 0), runCluster(t, serial, n, 0)}
	if !want[0].Halted || want[0].Instructions >= cores*n {
		t.Fatalf("serial run did not halt early: %+v", want[0])
	}
	midQuantum := false
	for _, pc := range want[0].PerCore {
		midQuantum = midQuantum || pc.Halted && pc.Instructions%DefaultQuantum != 0
	}
	if !midQuantum {
		t.Fatalf("serial run halted on a quantum boundary: %+v", want[0])
	}
	for _, workers := range readAheadCases {
		cl, sys := buildHaltingCluster(t, cores)
		cl.SetWorkers(workers)
		for k := range want {
			got := runCluster(t, cl, n, 0)
			if !reflect.DeepEqual(want[k], got) {
				t.Errorf("workers=%d run %d: diverged from serial\nserial:     %+v\nread-ahead: %+v", workers, k, want[k], got)
			}
		}
		for _, s := range sys {
			s.Release()
		}
		cl.Release()
	}
	for _, s := range serialSys {
		s.Release()
	}
	serial.Release()
}

// cancelSource cancels a run's context once it has handed out n
// instructions; a producer goroutine draws it. The draw that cancels is
// slow, so it is still in flight when the cores see the cancellation.
type cancelSource struct {
	trace.BatchSource
	n        int
	cancel   context.CancelFunc
	finished atomic.Bool // the cancelling draw returned
}

func (s *cancelSource) NextBatch(dst []trace.Instr) int {
	if s.n -= len(dst); s.n <= 0 && !s.finished.Load() {
		s.cancel()
		time.Sleep(20 * time.Millisecond)
		defer s.finished.Store(true)
	}
	return s.BatchSource.NextBatch(dst)
}

// goroutinesBack waits briefly for the goroutine count to return to
// base: a joined goroutine may still be unwinding when Wait returns.
func goroutinesBack(t *testing.T, base int, when string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Errorf("%s: %d goroutines, want the baseline %d", when, runtime.NumGoroutine(), base)
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// TestClusterReadAheadCancel cancels a run that asked for far more
// instructions than it could finish: RunCtx must return the context's
// error promptly, and every producer must be gone when RunCtx returns
// and still when Release does.
func TestClusterReadAheadCancel(t *testing.T) {
	const cores = 4
	for _, workers := range readAheadCases {
		base := runtime.NumGoroutine()
		cl, sys := buildPrivateCluster(t, cores)
		ctx, cancel := context.WithCancel(context.Background())
		src := &cancelSource{BatchSource: cl.srcs[2].(trace.BatchSource), n: 20_000, cancel: cancel}
		cl.srcs[2] = src
		cl.SetWorkers(workers)
		start := time.Now()
		res, err := cl.RunCtx(ctx, 1<<40, 0)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: RunCtx returned %v, want context.Canceled", workers, err)
		}
		if !src.finished.Load() {
			t.Errorf("workers=%d: RunCtx returned while a producer was still drawing", workers)
		}
		if d := time.Since(start); d > 10*time.Second {
			t.Errorf("workers=%d: cancelled run took %v to return", workers, d)
		}
		// No core runs past the block whose draw cancelled the run, nor
		// more than a quantum ahead of core 2 in the round.
		if limit := cores * (20_000 + aheadBlock + DefaultQuantum); res.Instructions == 0 || res.Instructions > uint64(limit) {
			t.Errorf("workers=%d: cancelled run executed %d instructions, want 1 to %d", workers, res.Instructions, limit)
		}
		goroutinesBack(t, base, fmt.Sprintf("workers=%d after RunCtx", workers))
		cl.Release()
		for _, s := range sys {
			s.Release()
		}
		goroutinesBack(t, base, fmt.Sprintf("workers=%d after Release", workers))
		cancel()
	}
}

// TestClusterFaultPlaneParallel is the fault-plane concurrency gate: CI
// runs it under -race. Each core's own L1 carries an armed fault plane
// with stuck-at and intermittent cells that re-assert on every array
// consult while the Cluster's producers read every core's trace ahead
// and the cores execute in order. The run must be bit-identical
// to the workerless run (plane coin draws are per-cache, so per-core
// streams stay deterministic) and the faults must actually fire
// (detections observed on every core).
func TestClusterFaultPlaneParallel(t *testing.T) {
	const instrs, quantum = 6_000, 0
	const cores = 4

	arm := func(systems []*System) {
		for i, sys := range systems {
			c := sys.L1().C
			c.ArmPlane(1234 + int64(i))
			words := c.BlockWords()
			for s := 0; s < c.Sets(); s += 5 {
				bit := uint(s % 64)
				c.AddStuckFault(s, s%c.Ways(), s%words, 1<<bit, 1<<bit)
				c.AddIntermittentFault(s, (s+1)%c.Ways(), (s+1)%words, 1<<((bit*7)%64), 0.2)
			}
		}
	}

	serial, serialSys := buildPrivateCluster(t, cores)
	arm(serialSys)
	serialRes := runCluster(t, serial, instrs, quantum)
	serialStats := make([]interface{}, cores)
	for i, sys := range serialSys {
		serialStats[i] = sys.L1().Stats
		if sys.L1().Stats.FaultsDetected == 0 {
			t.Errorf("core %d: armed plane produced no detections — faults never re-asserted", i)
		}
	}

	par, parSys := buildPrivateCluster(t, cores)
	arm(parSys)
	par.SetWorkers(cores)
	parRes := runCluster(t, par, instrs, quantum)
	if !reflect.DeepEqual(serialRes, parRes) {
		t.Errorf("parallel run with armed fault planes diverged\nserial:   %+v\nparallel: %+v",
			serialRes, parRes)
	}
	for i, sys := range parSys {
		if !reflect.DeepEqual(serialStats[i], sys.L1().Stats) {
			t.Errorf("core %d: L1 stats diverged under armed plane\nserial:   %+v\nparallel: %+v",
				i, serialStats[i], sys.L1().Stats)
		}
		sys.Release()
	}
	par.Release()
	for _, sys := range serialSys {
		sys.Release()
	}
	serial.Release()
}
