package main

import (
	"fmt"
	"strings"
	"testing"
)

// twoRuns is `go test -bench` output as CI concatenates it: two runs of
// two packages, with sub-benchmarks, a -N suffix on some names and not
// on others, a logged benchmark and a run without -benchmem.
const twoRuns = `goos: linux
goarch: amd64
pkg: cppc
cpu: Intel(R) Xeon(R) CPU @ 2.20GHz
BenchmarkFigure10CPI-2            	      15	  76674933 ns/op	   49138 B/op	     285 allocs/op
BenchmarkShardedSuite/workers=1-2 	       6	 179424024 ns/op	  901894 B/op	    4828 allocs/op
BenchmarkMulticoreCell/silent=true-2	   240	   5142162 ns/op	  146242 B/op	      56 allocs/op
BenchmarkLogged-2
    bench_test.go:12: a log line
BenchmarkLogged-2                 	     100	       120 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	cppc	12.345s
goos: linux
goarch: amd64
pkg: cppc/internal/parity
cpu: Intel(R) Xeon(R) CPU @ 2.20GHz
BenchmarkHammingDecode/256        	 2771394	       401.8 ns/op
PASS
ok  	cppc/internal/parity	1.234s
goos: linux
goarch: amd64
pkg: cppc
cpu: Intel(R) Xeon(R) CPU @ 2.20GHz
BenchmarkFigure10CPI-2            	      15	  80000000 ns/op	   49138 B/op	     287 allocs/op
PASS
ok  	cppc	12.345s
`

func TestParse(t *testing.T) {
	host, got, err := parse(twoRuns)
	if err != nil {
		t.Fatal(err)
	}
	wantHost := []string{"goos: linux", "goarch: amd64", "cpu: Intel(R) Xeon(R) CPU @ 2.20GHz"}
	if fmt.Sprint(host) != fmt.Sprint(wantHost) {
		t.Errorf("host = %q, want %q", host, wantHost)
	}
	want := map[string]series{
		"cppc.Figure10CPI":                       {[]float64{76674933, 80000000}, []float64{285, 287}},
		"cppc.ShardedSuite/workers=1":            {[]float64{179424024}, []float64{4828}},
		"cppc.MulticoreCell/silent=true":         {[]float64{5142162}, []float64{56}},
		"cppc.Logged":                            {[]float64{120}, []float64{0}},
		"cppc/internal/parity.HammingDecode/256": {[]float64{401.8}, nil},
	}
	if len(got) != len(want) {
		t.Errorf("parsed %d benchmarks, want %d", len(got), len(want))
	}
	for k, w := range want {
		if g := got[k]; fmt.Sprint(g) != fmt.Sprint(w) {
			t.Errorf("%s: samples %v, want %v", k, g, w)
		}
	}
	if _, _, err := parse("BenchmarkX-2 10 fast ns/op\n"); err == nil {
		t.Error("a non-numeric value parsed")
	}
}

func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{7}, 7, 7, 7},
		{[]float64{30, 10, 20}, 15, 20, 25},
		{[]float64{4, 1, 3, 2}, 1.75, 2.5, 3.25},
		{[]float64{5, 1, 4, 2, 3}, 2, 3, 4},
	} {
		if q1, med, q3 := quartiles(tc.xs); q1 != tc.q1 || med != tc.med || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v, want %v, %v, %v", tc.xs, q1, med, q3, tc.q1, tc.med, tc.q3)
		}
	}
}

// samples builds one sample per ns/op value, each with allocs allocs/op.
func samples(allocs float64, ns ...float64) series {
	s := series{ns: ns}
	for range ns {
		s.allocs = append(s.allocs, allocs)
	}
	return s
}

func judged(t *testing.T, parent, change series) row {
	t.Helper()
	rows := compare(map[string]series{"x": parent}, map[string]series{"x": change}, 1.0)
	if len(rows) != 1 {
		t.Fatalf("rows = %+v", rows)
	}
	return rows[0]
}

// TestCompareNsTolerance pins the ns/op gate at CI's tolerance of 1.0:
// the change's median may reach, but not pass, twice the parent's.
func TestCompareNsTolerance(t *testing.T) {
	parent := samples(0, 99, 100, 101)
	for _, tc := range []struct {
		ratio float64
		fails bool
	}{{0.5, false}, {1.9, false}, {2.1, true}} {
		change := samples(0, 99*tc.ratio, 100*tc.ratio, 101*tc.ratio)
		if r := judged(t, parent, change); r.failed != tc.fails {
			t.Errorf("%.1fx ns/op: verdict %q, want failing %v", tc.ratio, r.verdict, tc.fails)
		}
	}
}

// TestCompareAllocAllowance pins the allocs/op gate: a zero parent
// median is exact, a non-zero one may rise by max(4, 5%), every change
// sample counts, and none of it loosens with the ns/op tolerance.
func TestCompareAllocAllowance(t *testing.T) {
	for _, tc := range []struct {
		parent []float64
		change []float64
		fails  bool
	}{
		{[]float64{0, 0, 0}, []float64{0, 0, 0}, false},
		{[]float64{0, 0, 0}, []float64{0, 1, 0}, true},
		{[]float64{0, 0, 1}, []float64{1, 1, 1}, true},
		{[]float64{15, 15, 15}, []float64{19, 19, 19}, false},
		{[]float64{15, 15, 15}, []float64{15, 20, 15}, true},
		{[]float64{285, 285, 285}, []float64{289, 289, 289}, false},
		{[]float64{284, 285, 290}, []float64{299, 285, 285}, false},
		{[]float64{285, 285, 285}, []float64{285, 285, 300}, true},
		{[]float64{285, 285, 285}, []float64{570, 570, 570}, true},
		{[]float64{285, 285, 285}, []float64{200, 200, 200}, false},
	} {
		parent := series{ns: []float64{100, 100, 100}, allocs: tc.parent}
		change := series{ns: []float64{100, 100, 100}, allocs: tc.change}
		if r := judged(t, parent, change); r.failed != tc.fails {
			t.Errorf("%v -> %v allocs/op: verdict %q, want failing %v", tc.parent, tc.change, r.verdict, tc.fails)
		}
	}
}

// TestCompareUnresolved checks that a parent whose own samples spread
// wider than the tolerance leaves the ns/op verdict unresolved instead
// of failing it, while the allocs/op gate still applies.
func TestCompareUnresolved(t *testing.T) {
	parent := samples(0, 50, 100, 400) // (q3-q1)/median = (250-75)/100
	r := judged(t, parent, samples(0, 300, 300, 300))
	if r.failed || !strings.HasPrefix(r.verdict, "unresolved") {
		t.Errorf("wide parent, 3x change: verdict %q, want unresolved and passing", r.verdict)
	}
	if r := judged(t, parent, samples(1, 100, 100, 100)); !r.failed {
		t.Errorf("wide parent, new allocation: verdict %q, want failing", r.verdict)
	}
}

// TestCompareOneSided lists a benchmark present on one side only without
// failing the gate.
func TestCompareOneSided(t *testing.T) {
	rows := compare(
		map[string]series{"gone": samples(0, 1), "both": samples(0, 1)},
		map[string]series{"new": samples(0, 1), "both": samples(0, 1)}, 0.25)
	got := map[string]string{}
	for _, r := range rows {
		got[r.key] = r.verdict
		if r.failed {
			t.Errorf("%s failed: %s", r.key, r.verdict)
		}
	}
	want := map[string]string{"both": "ok +0%", "gone": "parent only", "new": "change only"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("verdicts = %v, want %v", got, want)
	}
}
