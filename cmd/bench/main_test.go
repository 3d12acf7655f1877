package main

import "testing"

// TestCompareAllocAllowance pins the allocs/op gate: a zero baseline is
// exact, a non-zero one may rise by max(4, 5%), and neither loosens with
// the ns/op tolerance.
func TestCompareAllocAllowance(t *testing.T) {
	for _, tc := range []struct {
		base, cur int64
		fails     bool
	}{
		{0, 0, false},
		{0, 1, true},
		{15, 19, false},
		{15, 20, true},
		{285, 299, false},
		{285, 300, true},
		{285, 570, true},
		{285, 200, false},
	} {
		base := map[string]Result{"x": {NsPerOp: 100, AllocsPerOp: tc.base}}
		cur := map[string]Result{"x": {NsPerOp: 100, AllocsPerOp: tc.cur}}
		if bad := compare(base, cur, 1.0); (len(bad) > 0) != tc.fails {
			t.Errorf("%d -> %d allocs/op at tolerance 1.0: regressions %q, want failing %v",
				tc.base, tc.cur, bad, tc.fails)
		}
	}
}
