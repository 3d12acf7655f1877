package cpu

import (
	"context"
	"reflect"
	"testing"

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
// Cluster run whose trace is prefilled across workers must be
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

// TestClusterPrefillExactDemand pins the prefill contract on its edge
// cases: leftovers in the refill buffer (a halted run), a changed
// source, and a demand beyond the buffer must all leave the core's draw
// sequence identical to the unprefilled path.
func TestClusterPrefillExactDemand(t *testing.T) {
	prof := gzipProfile()

	// Reference: draw 600 instructions straight off a fresh generator.
	ref := make([]trace.Instr, 600)
	g := prof.NewGen(3)
	for i := range ref {
		ref[i] = g.Next()
	}

	sys := NewSystem(Parity1DFactory(), Parity1DFactory())
	defer sys.Release()
	c := NewCoreWithPort(Table1Config(), sys.Port())
	defer c.Release()
	src := prof.NewGen(3)

	check := func(stage string, want []trace.Instr) {
		got := c.srcBuf[c.srcPos:c.srcLen]
		if len(got) != len(want) {
			t.Fatalf("%s: buffered %d instrs, want %d", stage, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: buffered instr %d = %+v, want %+v", stage, i, got[i], want[i])
			}
		}
	}

	// Fresh source: prefill(256) draws exactly the first quantum.
	c.prefill(src, 256)
	check("fresh", ref[:256])

	// Re-prefill with the buffer already full: no further draws.
	c.prefill(src, 256)
	check("idempotent", ref[:256])

	// Consume 200 by hand (simulating a partial run), then prefill a full
	// quantum: leftovers compact, only the missing tail is drawn.
	c.srcPos += 200
	c.prefill(src, 256)
	check("leftovers", ref[200:456])

	// Demand beyond the buffer: prefill declines, buffer untouched.
	c.prefill(src, 1024)
	check("oversized", ref[200:456])

	// A changed source resets the buffer and draws from the new stream.
	src2 := prof.NewGen(3)
	c.prefill(src2, 100)
	check("new source", ref[:100])
}

// TestClusterFaultPlaneParallel is the fault-plane concurrency gate: CI
// runs it under -race. Each core's own L1 carries an armed fault plane
// with stuck-at and intermittent cells that re-assert on every array
// consult while the Cluster prefills every core's trace concurrently
// and then executes the cores in order. The run must be bit-identical
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
