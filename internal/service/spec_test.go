package service

import (
	"encoding/json"
	"reflect"
	"testing"
)

// TestDefaultSuiteHashStable pins the default suite spec's content
// address, so spec-surface changes (dropped fields, new figure names)
// cannot silently move the cache keys a -data-dir disk tier holds.
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

// FuzzNormalize decodes arbitrary JSON into a JobSpec, as the HTTP API
// does, and checks the planner's invariants on every spec normalize
// accepts: normalizing is idempotent, the hash survives a JSON round
// trip, planCells never panics, and every planned cell, again after a
// round trip, plans into itself under its own hash. The last is what
// lets a directly submitted cell share a sweep's cell: submitting the
// cell's own spec plans the same hash the sweep stored.
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
