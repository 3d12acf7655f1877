package trace_test

import (
	"bytes"
	"context"
	"testing"

	"cppc/internal/experiments"
	"cppc/internal/trace"
)

// TestTraceRoundTripStream asserts that WriteTrace followed by ParseTrace
// reproduces the generator's instruction stream exactly — every opcode,
// address, dependency distance and mispredict flag.
func TestTraceRoundTripStream(t *testing.T) {
	const n = 50_000
	for _, prof := range trace.Profiles()[:4] {
		var buf bytes.Buffer
		if err := trace.WriteTrace(&buf, prof.NewGen(7), n); err != nil {
			t.Fatalf("%s: WriteTrace: %v", prof.Name, err)
		}
		fs, err := trace.ParseTrace(&buf)
		if err != nil {
			t.Fatalf("%s: ParseTrace: %v", prof.Name, err)
		}
		if fs.Len() != n {
			t.Fatalf("%s: recorded %d instructions, want %d", prof.Name, fs.Len(), n)
		}
		ref := prof.NewGen(7)
		for i := 0; i < n; i++ {
			want, got := ref.Next(), fs.Next()
			if want != got {
				t.Fatalf("%s: instruction %d diverged: recorded %+v, replayed %+v",
					prof.Name, i, want, got)
			}
		}
	}
}

// TestTraceRoundTripCPI asserts that replaying a recorded trace through
// the full timing model reproduces the generator's CPI and cache
// statistics bit-for-bit at the quick budget.
func TestTraceRoundTripCPI(t *testing.T) {
	if testing.Short() {
		t.Skip("quick-budget simulation")
	}
	b := experiments.QuickBudget()
	prof, ok := trace.ProfileByName("mcf")
	if !ok {
		t.Fatal("mcf profile missing")
	}

	// Record exactly the instructions the warm+measure run will consume,
	// so the replay never wraps around.
	var buf bytes.Buffer
	if err := trace.WriteTrace(&buf, prof.NewGen(b.Seed), b.Warmup+b.Measure); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	fs, err := trace.ParseTrace(&buf)
	if err != nil {
		t.Fatalf("ParseTrace: %v", err)
	}

	direct, err := experiments.SimulateSourceCtx(context.Background(), prof.Name, prof.NewGen(b.Seed), experiments.CPPC, b)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := experiments.SimulateSourceCtx(context.Background(), prof.Name, fs, experiments.CPPC, b)
	if err != nil {
		t.Fatal(err)
	}

	if direct.CPI != replay.CPI {
		t.Fatalf("CPI diverged: generated %.6f, replayed %.6f", direct.CPI, replay.CPI)
	}
	if direct.L1 != replay.L1 || direct.L2 != replay.L2 {
		t.Fatalf("cache stats diverged:\n gen L1 %+v L2 %+v\n rep L1 %+v L2 %+v",
			direct.L1, direct.L2, replay.L1, replay.L2)
	}
	if direct.Folds != replay.Folds {
		t.Fatalf("CPPC fold counts diverged: %+v vs %+v", direct.Folds, replay.Folds)
	}
}
