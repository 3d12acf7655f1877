// Command bench is the repository's benchmark-regression harness. It
// measures the figure pipelines and protection hot paths with
// testing.Benchmark, compares the results against the newest committed
// BENCH_<n>.json, and fails (exit 1) when any entry regresses beyond the
// tolerance in ns/op, or beyond a small fixed allowance in allocs/op
// (none for the allocation-free paths). With -write it records a new
// BENCH_<n+1>.json to become the next baseline.
//
//	go run ./cmd/bench                 # compare against the latest BENCH_<n>.json
//	go run ./cmd/bench -tolerance 0.5  # looser gate (noisy CI runners)
//	go run ./cmd/bench -write          # record BENCH_<n+1>.json
//
// Numbers depend on the host; regenerate the baseline on the machine that
// will compare against it, or keep the tolerance generous.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"testing"

	"time"

	"cppc/internal/bitops"
	"cppc/internal/cache"
	"cppc/internal/cellstore"
	"cppc/internal/core"
	"cppc/internal/experiments"
	"cppc/internal/parity"
	"cppc/internal/protect"
	"cppc/internal/service"
	"cppc/internal/trace"
)

// Result is one benchmark's measurement.
type Result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	N           int     `json:"n"`
}

// File is the BENCH_<n>.json schema.
type File struct {
	Schema  int               `json:"schema"`
	Go      string            `json:"go"`
	Arch    string            `json:"arch"`
	Results map[string]Result `json:"results"`
}

func benchBudget() experiments.Budget {
	return experiments.Budget{Warmup: 20_000, Measure: 60_000, Seed: 1}
}

func benchProfiles() []trace.Profile {
	var out []trace.Profile
	for _, name := range []string{"crafty", "vortex", "mcf"} {
		p, ok := trace.ProfileByName(name)
		if !ok {
			panic("missing profile " + name)
		}
		out = append(out, p)
	}
	return out
}

// benchDisk builds a throwaway disk cell store; the caller removes dir.
func benchDisk() (*cellstore.Disk, string) {
	dir, err := os.MkdirTemp("", "cppc-bench-disk-*")
	if err != nil {
		panic(fmt.Sprintf("disk store tempdir: %v", err))
	}
	d, err := cellstore.NewDisk(dir, 0)
	if err != nil {
		os.RemoveAll(dir)
		panic(fmt.Sprintf("disk store: %v", err))
	}
	return d, dir
}

// benchCellPayload is a typical encoded cell: a few KB of JSON-ish bytes.
func benchCellPayload() []byte {
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte('a' + i%26)
	}
	return data
}

func newHotController() *protect.Controller {
	c := cache.New(cache.L1DConfig())
	s := protect.MustCPPC(c, core.DefaultL1Config())
	return protect.NewController(c, s, cache.NewMemory(32, 200))
}

// entries lists the gated benchmarks: the end-to-end figure pipeline the
// tentpole optimized, the two allocation-free hot paths, and the decode
// kernels. Order is the report order.
var entries = []struct {
	name string
	fn   func(b *testing.B)
}{
	{"Figure10CPI", func(b *testing.B) {
		b.ReportAllocs()
		bud := benchBudget()
		ctx := context.Background() // never canceled, so SimulateCtx cannot fail
		for i := 0; i < b.N; i++ {
			for _, p := range benchProfiles() {
				base, _ := experiments.SimulateCtx(ctx, p, experiments.Parity1D, bud)
				cp, _ := experiments.SimulateCtx(ctx, p, experiments.CPPC, bud)
				td, _ := experiments.SimulateCtx(ctx, p, experiments.TwoDim, bud)
				if cp.CPI < base.CPI*0.99 || td.CPI < base.CPI*0.99 {
					panic("CPI ordering broken")
				}
			}
		}
	}},
	{"LoadHitCPPC", func(b *testing.B) {
		b.ReportAllocs()
		ctrl := newHotController()
		ctrl.Store(0x40, 1, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ctrl.Load(0x40, uint64(i+2))
		}
	}},
	{"StoreHitCPPC", func(b *testing.B) {
		b.ReportAllocs()
		ctrl := newHotController()
		ctrl.Store(0x40, 1, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ctrl.Store(0x40, uint64(i), uint64(i+2))
		}
	}},
	{"FoldLine", func(b *testing.B) {
		b.ReportAllocs()
		// A full 8-word (64-byte) line: the multi-accumulator kernel's
		// widest committed shape, tracked independently of the CPI
		// benchmarks that amortize it.
		line := make([]uint64, 8)
		for i := range line {
			line[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
		}
		b.ResetTimer()
		var sink uint64
		for i := 0; i < b.N; i++ {
			sink ^= bitops.FoldLine(line)
		}
		if sink == 42 {
			panic("fold sink")
		}
	}},
	{"GranuleParity", func(b *testing.B) {
		b.ReportAllocs()
		eng, err := core.New(cache.New(cache.L1DConfig()), core.DefaultL1Config())
		if err != nil {
			panic(err)
		}
		data := []uint64{0xdeadbeefcafebabe}
		b.ResetTimer()
		var sink uint64
		for i := 0; i < b.N; i++ {
			sink ^= eng.GranuleParity(data)
		}
		if sink == 1<<63 {
			panic("parity sink")
		}
	}},
	{"SECDEDDecode", func(b *testing.B) {
		b.ReportAllocs()
		var s parity.SECDED
		w := uint64(0xdeadbeefcafebabe)
		check := s.Encode(w)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if res := s.Decode(w, check); res.Outcome != parity.SECDEDClean {
				panic("decode broke")
			}
		}
	}},
	{"HammingDecode64", func(b *testing.B) {
		b.ReportAllocs()
		// The per-word code protect.SECDEDScheme runs at L1; SECDEDDecode
		// above times the fixed-width reference, which no simulation calls.
		h := parity.MustHamming(64)
		data := []uint64{0xdeadbeefcafebabe}
		check := h.Encode(data)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if res := h.Decode(data, check); res.Outcome != parity.SECDEDClean {
				panic("decode broke")
			}
		}
	}},
	{"HammingDecode256", func(b *testing.B) {
		b.ReportAllocs()
		h := parity.MustHamming(256)
		data := []uint64{1, 2, 3, 4}
		check := h.Encode(data)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if res := h.Decode(data, check); res.Outcome != parity.SECDEDClean {
				panic("decode broke")
			}
		}
	}},
	{"GoldenMemoryBlock", func(b *testing.B) {
		b.ReportAllocs()
		// One 32-byte block fetch plus its write-back on the golden
		// memory, striding over a fault campaign's 8KB footprint with
		// every page resident: the paged table's per-block cost.
		const blocks = 8 << 10 / 32
		m := cache.NewMemory(32, 100)
		blk := make([]uint64, 4)
		for i := 0; i < blocks; i++ {
			m.WriteBackBlock(uint64(i*32), blk, 0)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a := uint64(i*37%blocks) * 32
			m.FetchBlock(a, blk, 0)
			blk[0]++
			m.WriteBackBlock(a, blk, 0)
		}
	}},
	{"CellStoreDiskPut", func(b *testing.B) {
		b.ReportAllocs()
		d, dir := benchDisk()
		defer os.RemoveAll(dir)
		data := benchCellPayload()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.Put(fmt.Sprintf("%064x", i), data)
		}
	}},
	{"CellStoreDiskGet", func(b *testing.B) {
		b.ReportAllocs()
		d, dir := benchDisk()
		defer os.RemoveAll(dir)
		data := benchCellPayload()
		const entries = 256
		for i := 0; i < entries; i++ {
			d.Put(fmt.Sprintf("%064x", i), data)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := d.Get(fmt.Sprintf("%064x", i%entries)); !ok {
				panic("disk store lost a cell")
			}
		}
	}},
	{"ShardedSuite1", func(b *testing.B) { runShardedSuite(b, 1) }},
	{"ShardedSuite8", func(b *testing.B) { runShardedSuite(b, 8) }},
	{"MulticoreCPI", func(b *testing.B) {
		b.ReportAllocs()
		p, ok := trace.ProfileByName("gzip")
		if !ok {
			panic("missing profile gzip")
		}
		bud := experiments.Budget{Warmup: 5_000, Measure: 15_000, Seed: 1}
		for i := 0; i < b.N; i++ {
			run, err := experiments.MulticoreCellCtx(context.Background(), p, 2, 0.3, false, bud)
			if err != nil || run.CPI <= 0 {
				panic(fmt.Sprintf("multicore cell broke: cpi=%v err=%v", run.CPI, err))
			}
		}
	}},
	{"MulticoreEnergy", func(b *testing.B) {
		b.ReportAllocs()
		// The silent-store variant of the multicore cell: same timing, but
		// the energy accounting path (per-engine fold/elision counts, three
		// energy reports, bus model) is exercised end to end. Guards the
		// cost of the elision compare on the store path and of the
		// post-measure energy accounting.
		p, ok := trace.ProfileByName("gzip")
		if !ok {
			panic("missing profile gzip")
		}
		bud := experiments.Budget{Warmup: 5_000, Measure: 15_000, Seed: 1}
		for i := 0; i < b.N; i++ {
			run, err := experiments.MulticoreCellCtx(context.Background(), p, 2, 0.3, true, bud)
			if err != nil || run.TotalEnergyPJ() <= 0 {
				panic(fmt.Sprintf("multicore energy cell broke: e=%v err=%v", run.TotalEnergyPJ(), err))
			}
		}
	}},
	{"FieldMC", func(b *testing.B) {
		b.ReportAllocs()
		// One field-mix grid cell (populate + exercise + probe per
		// trial): the persistence hook's end-to-end cost, gated so the
		// fault-plane consult stays off the floor of the read path.
		pt := experiments.FieldPoint{Footprint: "word", Lifetime: "stuck", Rate: "x1"}
		for i := 0; i < b.N; i++ {
			cell, err := experiments.FieldMCCellCtx(context.Background(), "cppc", pt, 4, 1)
			if err != nil || cell.Counts.Total() != 4 {
				panic(fmt.Sprintf("fieldmc cell broke: %+v err=%v", cell, err))
			}
		}
	}},
	{"MonteCarloMTTF", func(b *testing.B) {
		b.ReportAllocs()
		// One accelerated-rate lifetime cell (the montecarlo job kind's
		// unit of work): gates the arena-reuse cost of the trial executor
		// on the longest-running campaign type.
		for i := 0; i < b.N; i++ {
			cell, err := experiments.MonteCarloCellCtx(context.Background(), "parity-1d", 4, 1)
			if err != nil || cell.Res.Trials != 4 {
				panic(fmt.Sprintf("montecarlo cell broke: %+v err=%v", cell, err))
			}
		}
	}},
	{"FieldMCParallel8", func(b *testing.B) {
		b.ReportAllocs()
		// The FieldMC cell with an 8-worker trial budget: wall clock of
		// the fan-out path, including executor overhead. On one core this
		// tracks FieldMC (same trials, plus goroutine bookkeeping); with
		// the cores present it shows the parallel win.
		ctx := experiments.WithCellWorkers(context.Background(), 8)
		pt := experiments.FieldPoint{Footprint: "word", Lifetime: "stuck", Rate: "x1"}
		for i := 0; i < b.N; i++ {
			cell, err := experiments.FieldMCCellCtx(ctx, "cppc", pt, 16, 1)
			if err != nil || cell.Counts.Total() != 16 {
				panic(fmt.Sprintf("fieldmc parallel cell broke: %+v err=%v", cell, err))
			}
		}
	}},
	{"L3CPI", func(b *testing.B) {
		b.ReportAllocs()
		p, ok := trace.ProfileByName("mcf")
		if !ok {
			panic("missing profile mcf")
		}
		bud := experiments.Budget{Warmup: 5_000, Measure: 15_000, Seed: 1}
		for i := 0; i < b.N; i++ {
			run, err := experiments.L3Cell(context.Background(), p, bud)
			if err != nil || run.ParityCPI <= 0 {
				panic(fmt.Sprintf("L3 cell broke: cpi=%v err=%v", run.ParityCPI, err))
			}
		}
	}},
}

// runShardedSuite measures the wall clock of one whole suite job through
// the daemon's shard scheduler. A fresh Service per iteration keeps both
// caches cold, so the number is scheduling plus simulation rather than
// cache lookups; the 8-vs-1 worker pair shows the fan-out win on
// machines that have the cores.
func runShardedSuite(b *testing.B, workers int) {
	b.ReportAllocs()
	spec := service.JobSpec{Kind: "suite", Warmup: 5_000, Measure: 15_000}
	for i := 0; i < b.N; i++ {
		s := service.New(service.Config{Workers: workers})
		if _, err := s.Run(context.Background(), spec); err != nil {
			panic(fmt.Sprintf("sharded suite: %v", err))
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		if err := s.Shutdown(ctx); err != nil {
			panic(fmt.Sprintf("sharded suite shutdown: %v", err))
		}
		cancel()
	}
}

var benchRE = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// latest returns the highest-numbered BENCH_<n>.json in dir and its n,
// or n == 0 if none exists.
func latest(dir string) (string, int, error) {
	names, err := os.ReadDir(dir)
	if err != nil {
		return "", 0, err
	}
	best := 0
	bestName := ""
	for _, e := range names {
		m := benchRE.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		if n, err := strconv.Atoi(m[1]); err == nil && n > best {
			best, bestName = n, e.Name()
		}
	}
	return bestName, best, nil
}

func measure() map[string]Result {
	out := make(map[string]Result, len(entries))
	for _, e := range entries {
		fmt.Printf("running %-20s ... ", e.name)
		r := testing.Benchmark(e.fn)
		res := Result{
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			N:           r.N,
		}
		fmt.Printf("%12.1f ns/op  %6d allocs/op\n", res.NsPerOp, res.AllocsPerOp)
		out[e.name] = res
	}
	return out
}

// compare reports every ns/op regression of cur vs base beyond tol
// (fractional, e.g. 0.25 = +25%) and every allocs/op rise beyond
// allocSlack, which tol does not loosen.
func compare(base, cur map[string]Result, tol float64) []string {
	var bad []string
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b := base[name]
		c, ok := cur[name]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: present in baseline but not measured", name))
			continue
		}
		if c.NsPerOp > b.NsPerOp*(1+tol) {
			bad = append(bad, fmt.Sprintf("%s: %.1f ns/op vs baseline %.1f (+%.0f%%, tolerance %.0f%%)",
				name, c.NsPerOp, b.NsPerOp, 100*(c.NsPerOp/b.NsPerOp-1), 100*tol))
		}
		if slack := allocSlack(b.AllocsPerOp); c.AllocsPerOp > b.AllocsPerOp+slack {
			bad = append(bad, fmt.Sprintf("%s: %d allocs/op vs baseline %d (allowance %d)",
				name, c.AllocsPerOp, b.AllocsPerOp, slack))
		}
	}
	return bad
}

// allocSlack is how far allocs/op may rise over a baseline of base. A
// zero baseline is exact: the allocation-free paths fail on the first
// stray allocation. Any other may rise by max(4, 5%), which covers the
// run-to-run jitter of pooled arrays seen so far (Figure10CPI 281-294,
// MulticoreEnergy 56-59, CellStoreDiskPut 16 against 15).
func allocSlack(base int64) int64 {
	if base == 0 {
		return 0
	}
	return max(4, base/20)
}

// deltaTable renders every baseline benchmark's baseline/current numbers
// side by side, so a failing comparison shows the whole picture — which
// entries regressed, by how much, and what stayed put — instead of only
// the offenders.
func deltaTable(base, cur map[string]Result) string {
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	out := fmt.Sprintf("  %-20s %14s %14s %8s %16s\n",
		"benchmark", "base ns/op", "cur ns/op", "delta", "allocs base/cur")
	for _, name := range names {
		b := base[name]
		c, ok := cur[name]
		if !ok {
			out += fmt.Sprintf("  %-20s %14.1f %14s %8s %16s\n",
				name, b.NsPerOp, "-", "-", "-")
			continue
		}
		out += fmt.Sprintf("  %-20s %14.1f %14.1f %+7.1f%% %10d/%d\n",
			name, b.NsPerOp, c.NsPerOp, 100*(c.NsPerOp/b.NsPerOp-1),
			b.AllocsPerOp, c.AllocsPerOp)
	}
	return out
}

func main() {
	var (
		dir   = flag.String("dir", ".", "directory holding BENCH_<n>.json baselines")
		tol   = flag.Float64("tolerance", 0.25, "allowed fractional ns/op regression before failing")
		write = flag.Bool("write", false, "record the measurements as the next BENCH_<n>.json")
	)
	flag.Parse()

	baseName, n, err := latest(*dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(2)
	}

	cur := measure()

	if baseName != "" {
		raw, err := os.ReadFile(filepath.Join(*dir, baseName))
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(2)
		}
		var base File
		if err := json.Unmarshal(raw, &base); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", baseName, err)
			os.Exit(2)
		}
		if bad := compare(base.Results, cur, *tol); len(bad) > 0 {
			fmt.Fprintf(os.Stderr, "bench: regressions vs %s:\n", baseName)
			for _, m := range bad {
				fmt.Fprintf(os.Stderr, "  %s\n", m)
			}
			fmt.Fprintf(os.Stderr, "bench: full comparison vs %s:\n%s", baseName, deltaTable(base.Results, cur))
			os.Exit(1)
		}
		fmt.Printf("no regressions vs %s (tolerance %.0f%%)\n", baseName, 100**tol)
	} else {
		fmt.Println("no BENCH_<n>.json baseline found; nothing to compare")
	}

	if *write {
		out := File{Schema: 1, Go: runtime.Version(), Arch: runtime.GOOS + "/" + runtime.GOARCH, Results: cur}
		raw, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(2)
		}
		name := filepath.Join(*dir, fmt.Sprintf("BENCH_%d.json", n+1))
		if err := os.WriteFile(name, append(raw, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("wrote %s\n", name)
	}
}
