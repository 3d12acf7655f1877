package service

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestDefaultSuiteHashStable pins the default suite spec's content
// address, so spec-surface changes (dropped fields, new figure names)
// cannot silently move cache keys that disks and fleet peers hold.
func TestDefaultSuiteHashStable(t *testing.T) {
	n, err := JobSpec{Kind: KindSuite}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	const want = "15c16bbdc36b326ccf6d4477607c6963963d4ad14735f3178eeef8f11b9fe184"
	if got := n.hash(); got != want {
		t.Fatalf("default suite hash = %s, want %s", got, want)
	}
}

// sweepSpecs are the job forms that plan into more than one cell.
var sweepSpecs = []JobSpec{
	{Kind: KindSuite},
	{Kind: KindMulticore, Sweep: true},
	{Kind: KindL3, Sweep: true},
	{Kind: KindMonteCarlo},
	{Kind: KindFieldMC},
}

// TestExecuteSpecRejectsSweeps: a fleet peer's queue listing is
// untrusted, so ExecuteSpec must refuse every sweep form with an error
// (an l3 sweep used to panic inside the stealer's goroutine) and every
// cell listed under a hash its spec does not produce, executing and
// storing nothing.
func TestExecuteSpecRejectsSweeps(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	for _, spec := range sweepSpecs {
		norm, err := spec.normalize()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.ExecuteSpec(context.Background(), QueuedCell{Hash: norm.hash(), Spec: spec}); err == nil {
			t.Errorf("%s sweep executed as a cell", spec.Kind)
		}
	}
	cell := JobSpec{Kind: KindSimulate, Bench: "gzip", Scheme: "cppc", Warmup: 2_000, Measure: 5_000}
	other, err := JobSpec{Kind: KindSimulate, Bench: "mcf", Scheme: "cppc", Warmup: 2_000, Measure: 5_000}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.ExecuteSpec(context.Background(), QueuedCell{Hash: other.hash(), Spec: cell})
	if err == nil || !strings.Contains(err.Error(), "hashes to") {
		t.Errorf("mismatched (hash, spec) pair: err = %v, want a hash mismatch", err)
	}
	if _, ok := s.store.Get(other.hash()); ok {
		t.Error("mismatched cell stored under the listed hash")
	}
	if n := s.Metrics().CellsExecuted; n != 0 {
		t.Errorf("%d cells executed, want 0", n)
	}
}

// FuzzNormalize decodes arbitrary JSON into a JobSpec, as the HTTP API
// and the fleet queue listing do, and checks the planner's invariants
// on every spec normalize accepts: normalizing is idempotent, the hash
// survives a JSON round trip, planCells never panics, and every planned
// cell — again after a round trip, the form a peer receives — plans
// into itself under its own hash, which ExecuteSpec's guard relies on.
func FuzzNormalize(f *testing.F) {
	for _, spec := range append([]JobSpec{
		{Kind: KindSimulate, Bench: "gzip", Scheme: "cppc-silent", Budget: "quick"},
		{Kind: KindSuite, Figures: []string{"fig12", "fig10.csv", "fig12"}, Seed: 7},
		{Kind: KindMulticore, Cores: 8, SharedFrac: 0.6, Silent: true, Warmup: 2000, Measure: 5000},
		{Kind: KindFieldMC, Scheme: "cppc", Footprint: "row", Lifetime: "stuck", Rate: "x4", Trials: 3},
	}, sweepSpecs...) {
		raw, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{"kind":"l3","sweep":true,"bench":"mcf"}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		var spec JobSpec
		if json.Unmarshal(raw, &spec) != nil {
			return
		}
		n, err := spec.normalize()
		if err != nil {
			return
		}
		again, err := n.normalize()
		if err != nil || !reflect.DeepEqual(again, n) {
			t.Fatalf("normalize not idempotent: %+v -> %+v (err %v)", n, again, err)
		}
		if got := wireHash(t, n); got != n.hash() {
			t.Fatalf("hash moved over a JSON round trip: %s -> %s", n.hash(), got)
		}
		for _, c := range planCells(n) {
			hash := c.hash()
			if plan := planCells(c); len(plan) != 1 || plan[0].hash() != hash {
				t.Fatalf("cell %+v of %+v plans into %d cells", c, n, len(plan))
			}
			if got := wireHash(t, c); got != hash {
				t.Fatalf("cell %+v hash moved over a JSON round trip: %s -> %s", c, hash, got)
			}
		}
	})
}

// wireHash sends a normalized spec through JSON and back and returns
// the hash the receiver computes.
func wireHash(t *testing.T, n JobSpec) string {
	t.Helper()
	raw, err := json.Marshal(n)
	if err != nil {
		t.Fatal(err)
	}
	var back JobSpec
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	norm, err := back.normalize()
	if err != nil {
		t.Fatalf("%s does not normalize again: %v", raw, err)
	}
	return norm.hash()
}
