// Command cppcbench is the repository's benchmark. It runs one named
// workload per process from one seed, measures it untraced for a fixed
// time, checks that its outputs are correct, and prints every end-to-end
// metric by name and unit, with one JSON object as the last line:
//
//	cppcbench -workload fig-suite -seed 1 -seconds 15
//	cppcbench -workload daemon-cold -trace 1     # per-layer metrics
//	cppcbench -workload all -runs 10             # medians and quartiles
//
// bash cmd/cppcbench/run.sh builds it from source and passes its
// arguments through. README.md describes the workloads and the metrics.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cppc/internal/experiments"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	procs    int
	scale    float64
	repo     string
}

func (c config) scaled(n int) int { return max(1, int(math.Round(float64(n)*c.scale))) }

func (c config) figBudget() experiments.Budget {
	b := experiments.DefaultBudget()
	b.Warmup, b.Measure = c.scaled(b.Warmup), c.scaled(b.Measure)
	return b
}

func (c config) sec7Budget() experiments.Budget {
	b := experiments.QuickBudget()
	b.Warmup, b.Measure = c.scaled(b.Warmup), c.scaled(b.Measure)
	return b
}

func (c config) trials() int { return c.scaled(40) }

// roundSeed is the seed of round r: round 0 runs the run's own seed, so
// seed 1 reproduces repro_output.txt.
func roundSeed(seed int64, r int) int64 { return seed + int64(r)*1_000_003 }

// phase says how much work one measured phase does.
type phase struct {
	deadline time.Duration
	// once makes the phase run round 0 only, the work an earlier phase's
	// first round did.
	once bool
	tr   *tracer
}

// outcome is what one phase measured and produced.
type outcome struct {
	wall      time.Duration   // the rounds' timed parts (daemon restarts are not timed)
	lat       []time.Duration // one per op
	attempted int
	failed    int
	problems  []string
	rounds    int
	roundOps  int // ops in one round

	// digest covers what a replay of round 0 reproduces; goldenDigest is
	// the part testdata/golden.json records; ref must appear verbatim in
	// repro_output.txt at seed 1 and full scale.
	digest, goldenDigest, ref string

	counts   map[string]float64 // round 0's exact per-layer counts
	instrs   uint64
	trials   int
	paperErr float64
}

// runner runs the rounds of one set-up workload. A round is a fixed
// amount of work: one complete artifact set of a simulation workload, or
// a fixed number of jobs per daemon client.
type runner interface {
	// round runs round r (its inputs come from roundSeed) and times it.
	round(ctx context.Context, r int, tr *tracer) (*round, error)
	close() error
}

// measure runs one phase in whole rounds, so every run's percentiles
// describe the same mix of ops and a run's peak memory does not depend on
// how many rounds it fits. It starts no round that the last round's
// duration says would end after the deadline, and runs at least one.
func measure(ctx context.Context, rn runner, ph phase) (*outcome, error) {
	o := &outcome{counts: map[string]float64{}}
	if ph.tr != nil {
		ph.tr.root = ph.tr.newID()
	}
	start := time.Now()
	var last time.Duration // the previous round's duration, restart included
	for r := 0; ; r++ {
		if r > 0 && (ph.once || time.Since(start)+last > ph.deadline) {
			break
		}
		rs := time.Now()
		rd, err := rn.round(ctx, r, ph.tr)
		if err != nil {
			return nil, err
		}
		last = time.Since(rs)
		o.rounds++
		o.wall += rd.timed
		o.lat = append(o.lat, rd.lat...)
		o.attempted += len(rd.lat)
		o.failed += rd.failed
		o.problems = append(o.problems, rd.problems...)
		o.instrs += rd.instrs
		o.trials += rd.trials
		if r == 0 {
			o.roundOps = len(rd.lat)
			o.digest = sha256Hex(rd.text)
			o.goldenDigest = rd.golden
			if o.goldenDigest == "" {
				o.goldenDigest = o.digest
			}
			o.ref = rd.ref
			o.paperErr = rd.paperErr
			o.counts = rd.counts
		}
	}
	if ph.tr != nil {
		ph.tr.record(ph.tr.root, 0, 0, "workload", start, time.Now())
	}
	return o, nil
}

type workload struct {
	name  string
	setUp func(ctx context.Context, cfg config) (runner, error)
}

// The workloads; BENCHMARK.json and README.md say why each is there.
var workloads = []workload{
	{"fig-suite", batch(figSuiteRound)},
	{"sec7-multicore", batch(sec7Round)},
	{"field-faults", batch(fieldRound)},
	{"daemon-cold", daemonWorkload(false)},
	{"daemon-hit", daemonWorkload(true)},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func batch(rf func(context.Context, config, int64, *tracer) (*round, error)) func(context.Context, config) (runner, error) {
	return func(_ context.Context, cfg config) (runner, error) { return &batchRunner{cfg: cfg, run: rf}, nil }
}

func daemonWorkload(hit bool) func(context.Context, config) (runner, error) {
	return func(ctx context.Context, cfg config) (runner, error) {
		d, err := startDaemon(ctx, cfg, hit, nil)
		if err != nil {
			return nil, err
		}
		return &daemonRunner{cfg: cfg, hit: hit, d: d}, nil
	}
}

// batchRunner runs a simulation workload's rounds, each timed whole.
type batchRunner struct {
	cfg config
	run func(context.Context, config, int64, *tracer) (*round, error)
}

func (b *batchRunner) close() error { return nil }

func (b *batchRunner) round(ctx context.Context, r int, tr *tracer) (*round, error) {
	start := time.Now()
	rd, err := b.run(ctx, b.cfg, roundSeed(b.cfg.seed, r), tr)
	if err != nil {
		return nil, err
	}
	rd.timed = time.Since(start)
	return rd, nil
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("cppcbench", flag.ContinueOnError)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "all", "one of "+strings.Join(names, ", ")+", or all")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed (round r uses seed + r*1000003)")
	fs.Float64Var(&cfg.seconds, "seconds", 15, "measure this long: start no round that would end after it (at least one)")
	traced := fs.Int("trace", 0, "1: after the untraced phase, replay it traced and report per-layer metrics instead of end-to-end ones")
	spans := fs.String("spans", "", "file for the traced run's spans (default spans-<workload>-<seed>.json in $CARGO_TARGET_DIR, else <repo>/.bench_build)")
	fs.IntVar(&cfg.procs, "procs", 2, "worker threads, cell workers, daemon workers and clients (capped at the CPU count)")
	fs.Float64Var(&cfg.scale, "scale", 1, "scale the work per op: instruction budgets, trials per campaign cell, job sizes")
	runs := fs.Int("runs", 1, "run each workload this many times, each in its own process with seeds seed..seed+runs-1, and print medians and quartiles")
	fs.StringVar(&cfg.repo, "repo", ".", "repository root, which holds repro_output.txt and cmd/cppcbench/testdata")
	writeGolden := fs.Bool("write-golden", false, "record the digests of seeds 1-3 at this -scale in testdata/golden.json")
	probe := fs.Bool("setup-probe", false, "set the workload up, print \"ready\" and exit (the setup_s probe)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*traced != 0 && *traced != 1) || cfg.procs < 1 || cfg.scale <= 0 || cfg.seconds < 0 || *runs < 1 {
		fmt.Fprintln(os.Stderr, "cppcbench: bad arguments (see -h)")
		return 2
	}
	var sel []workload
	if cfg.workload == "all" {
		sel = workloads
	} else if w, ok := lookup(cfg.workload); ok {
		sel = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "cppcbench: unknown workload %q (want %s or all)\n", cfg.workload, strings.Join(names, ", "))
		return 2
	}
	requested := cfg.procs
	cfg.procs = min(cfg.procs, runtime.NumCPU())
	runtime.GOMAXPROCS(cfg.procs)

	var err error
	code := 0
	switch {
	case *probe:
		if len(sel) != 1 {
			return 2
		}
		err = setupProbe(ctx, sel[0], cfg, stdout)
	case *writeGolden:
		err = writeGoldens(ctx, sel, cfg, stdout)
	case len(sel) > 1 || *runs > 1:
		fmt.Fprintln(stdout, hostLine(cfg, requested))
		code, err = runChildren(ctx, sel, cfg, *runs, *traced == 1, stdout)
	default:
		fmt.Fprintln(stdout, hostLine(cfg, requested))
		code, err = runOne(ctx, sel[0], cfg, *traced == 1, *spans, stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cppcbench:", err)
		return 2
	}
	return code
}

// setupProbe is the child side of setup_s: set up, say so, tear down.
func setupProbe(ctx context.Context, w workload, cfg config, stdout io.Writer) error {
	r, err := w.setUp(ctx, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "ready")
	return r.close()
}

// setupProbes is how many set-ups setup_s takes the median of.
const setupProbes = 5

// measureSetup times setupProbes fresh processes from start until they
// report the workload set up: process start, package initialization and
// the workload's own set-up (for the daemon, until /healthz answers 200).
func measureSetup(ctx context.Context, cfg config) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	args := []string{"-setup-probe", "-workload", cfg.workload, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-procs", strconv.Itoa(cfg.procs), "-scale", fmt.Sprint(cfg.scale), "-repo", cfg.repo}
	var ds []float64
	for range setupProbes {
		cmd := exec.CommandContext(ctx, exe, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return 0, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return 0, err
		}
		line, rerr := bufio.NewReader(out).ReadString('\n')
		d := time.Since(start)
		werr := cmd.Wait()
		if rerr != nil || werr != nil || line != "ready\n" {
			return 0, fmt.Errorf("setup probe: read %q (%v), exit %v", line, rerr, werr)
		}
		ds = append(ds, d.Seconds())
	}
	return median(ds), nil
}

type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

func sha256Hex(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

const (
	// tailBeyond is how many ops of one round op_tail_ms leaves beyond it.
	tailBeyond = 10
	// tailCap is the highest percentile op_tail_ms reads. Above it, a
	// daemon-hit op (about 0.2 ms) lands on the multi-millisecond stalls a
	// shared vCPU takes. On a 2-vCPU Xeon guest, its p99 spread 0.12-0.26
	// over ten runs of the same code, and its p98 spread 0.047-0.073.
	tailCap = 0.98
)

// endToEnd lists the untraced phase's end-to-end metrics. op_tail_ms is
// the highest percentile, up to tailCap, that leaves tailBeyond ops of a
// round beyond it. It is taken from the round size, not from the run's
// op count, so it is the same percentile however many rounds a run fits.
func endToEnd(o *outcome, setupS, rss float64) []metric {
	n := len(o.lat)
	tail := min(tailCap, max(0.5, 1-float64(tailBeyond)/float64(o.roundOps)))
	return []metric{
		{"setup_s", setupS, "s", fmt.Sprintf("median of %d set-ups", setupProbes)},
		{"ops_per_s", ratio(float64(n), o.wall.Seconds()), "1/s", ""},
		{"op_p50_ms", percentileMs(o.lat, 0.50), "ms", fmt.Sprintf("n=%d", n)},
		{"op_tail_ms", percentileMs(o.lat, tail), "ms", fmt.Sprintf("p%.4g, n=%d", 100*tail, n)},
		{"max_rss_mb", rss, "MB", ""},
	}
}

// rtSample is a reading of the Go runtime's GC and allocation counters.
type rtSample struct{ gcCPU, totalCPU, allocBytes float64 }

func readRuntime() rtSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindUint64:
			return float64(v.Uint64())
		}
		return 0
	}
	return rtSample{val(s[0].Value), val(s[1].Value), val(s[2].Value)}
}

// perLayer lists the traced run's per-layer metrics. Exact counts come
// from the traced replay to of the untraced phase o's first round, the
// runtime figures from o, and trace_overhead compares to with base, the
// untraced replay of the same round.
func perLayer(tr *tracer, o, base, to *outcome, rt0, rt1 rtSample) []metric {
	var ms []metric
	sh := tr.shares()
	for l := range numLayers {
		ms = append(ms, metric{layerNames[l] + ".self_share", sh[l], "fraction", ""})
	}
	c := to.counts
	jobs := float64(to.attempted)
	gets := float64(tr.storeGets.Load())
	cpuNs := float64(tr.cpuNs.Load())
	return append(ms,
		metric{"cellstore.busy_share", ratio(float64(tr.storeNs.Load()), float64(tr.totalNs())), "fraction", "store time over op time; nests inside service or client"},
		metric{"cpu.minstr_per_s", ratio(float64(tr.instrs.Load())*1e3, cpuNs), "Minstr/s", "simulated instructions per second of core-run time"},
		metric{"cpu.warmup_share", ratio(float64(tr.warmupNs.Load()), cpuNs), "fraction", ""},
		metric{"cache.l1_misses", c["cache.l1_misses"], "count", ""},
		metric{"cache.l2_misses", c["cache.l2_misses"], "count", ""},
		metric{"cache.writebacks", c["cache.writebacks"], "count", ""},
		metric{"core.folds", c["core.folds"], "count", ""},
		metric{"protect.rbw_per_store", ratio(c["l1.rbw"], c["l1.stores"]), "ratio", ""},
		metric{"coherence.invalidations", c["coherence.invalidations"], "count", ""},
		metric{"coherence.bus_busy_cycles", c["coherence.bus_busy_cycles"], "count", ""},
		metric{"fault.corrected", c["fault.corrected"], "count", ""},
		metric{"fault.due", c["fault.due"], "count", ""},
		metric{"fault.sdc", c["fault.sdc"], "count", ""},
		metric{"http.requests_per_job", ratio(float64(tr.requests.Load()), jobs), "ratio", ""},
		metric{"service.polls_per_job", ratio(c["service.polls"], jobs), "ratio", ""},
		metric{"service.cells_per_job", ratio(c["service.cells_executed"], jobs), "ratio", ""},
		metric{"service.worker_utilization", c["service.worker_utilization"], "fraction", ""},
		metric{"service.job_cache_hit_rate", c["service.job_cache_hit_rate"], "fraction", ""},
		metric{"cellstore.gets_per_job", ratio(gets, jobs), "ratio", ""},
		metric{"cellstore.hit_ratio", ratio(float64(tr.storeHits.Load()), gets), "fraction", ""},
		metric{"runtime.gc_cpu_share", ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU), "fraction", "untraced phase"},
		metric{"runtime.alloc_kb_per_op", ratio(rt1.allocBytes-rt0.allocBytes, 1024*float64(o.attempted)), "KB", "untraced phase"},
		metric{"trace_overhead", ratio(sum(to.lat), sum(base.lat)) - 1, "fraction", "traced / untraced op time - 1, same work"},
	)
}

// runOne runs one workload in this process: the untraced phase, and with
// traced the traced replay of it.
func runOne(ctx context.Context, w workload, cfg config, traced bool, spans string, stdout io.Writer) (int, error) {
	cfg.workload = w.name
	var setupS float64
	if !traced {
		var err error
		if setupS, err = measureSetup(ctx, cfg); err != nil {
			return 0, err
		}
	}
	r, err := w.setUp(ctx, cfg)
	if err != nil {
		return 0, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	rt0 := readRuntime()
	o, err := measure(ctx, r, phase{deadline: time.Duration(cfg.seconds * float64(time.Second))})
	rt1 := readRuntime()
	rss := maxRSSMB()
	// The traced replay of round 0 runs after an untraced replay of it, so
	// both see the warm trace memo and pools the first phase left, and
	// trace_overhead compares like with like.
	var base, to *outcome
	var tr *tracer
	if err == nil && traced {
		base, err = measure(ctx, r, phase{once: true})
	}
	if err == nil && traced {
		tr = newTracer()
		to, err = measure(ctx, r, phase{once: true, tr: tr})
	}
	if cerr := r.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, fmt.Errorf("%s: %w", w.name, err)
	}

	check, problems := verify(w, cfg, o, base, to)
	attempted, failed := o.attempted, o.failed
	for _, rp := range []*outcome{base, to} {
		if rp != nil {
			attempted += rp.attempted
			failed += rp.failed
			problems = append(problems, rp.problems...)
		}
	}
	correct := failed == 0 && check != "FAIL"

	fmt.Fprintf(stdout, "%s: seed=%d procs=%d scale=%g rounds=%d ops=%d wall_s=%.3f check=%s digest=%.16s\n",
		w.name, cfg.seed, cfg.procs, cfg.scale, o.rounds, o.attempted, o.wall.Seconds(), check, o.digest)
	for i, p := range problems {
		if i == 10 {
			fmt.Fprintf(stdout, "  ... %d more problems\n", len(problems)-10)
			break
		}
		fmt.Fprintln(stdout, "  problem:", p)
	}
	var ms []metric
	if traced {
		path := spans
		if path == "" {
			dir := os.Getenv("CARGO_TARGET_DIR")
			if dir == "" {
				dir = filepath.Join(cfg.repo, ".bench_build")
			}
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return 0, err
			}
			path = filepath.Join(dir, fmt.Sprintf("spans-%s-%d.json", w.name, cfg.seed))
		}
		if err := tr.writeSpans(path); err != nil {
			return 0, err
		}
		ms = perLayer(tr, o, base, to, rt0, rt1)
		fmt.Fprintf(stdout, "  traced replay: ops=%d wall_s=%.3f spans=%d (%d dropped) -> %s\n",
			to.attempted, to.wall.Seconds(), len(tr.spans), tr.dropped, path)
	} else {
		ms = endToEnd(o, setupS, rss)
	}
	printMetrics(stdout, ms)
	if !traced {
		printExtras(stdout, w, o)
	}
	if err := printJSON(stdout, correct, attempted, failed, ms); err != nil {
		return 0, err
	}
	if !correct {
		return 1, nil
	}
	return 0, nil
}

// verify checks the phase's outputs against the committed references:
// the golden digest for this (workload, scale, seed), repro_output.txt at
// seed 1 and full scale, and the replays' digests against the untraced
// phase's. It returns ok, unverified (no reference applies) or FAIL.
func verify(w workload, cfg config, o, base, to *outcome) (string, []string) {
	var problems []string
	status := "unverified"
	golden, err := loadGolden(cfg.repo)
	if err != nil {
		problems = append(problems, err.Error())
	}
	if want, ok := golden[goldenKey(w.name, cfg.scale)][strconv.FormatInt(cfg.seed, 10)]; ok {
		if o.goldenDigest == want {
			status = "ok"
		} else {
			problems = append(problems, fmt.Sprintf("digest %.16s differs from golden %.16s", o.goldenDigest, want))
		}
	}
	if o.ref != "" && cfg.seed == 1 && cfg.scale == 1 {
		repro, err := os.ReadFile(filepath.Join(cfg.repo, "repro_output.txt"))
		switch {
		case err != nil:
			problems = append(problems, err.Error())
		case !strings.Contains(string(repro), o.ref):
			problems = append(problems, "output differs from repro_output.txt")
		default:
			status = "ok"
		}
	}
	for _, rp := range []*outcome{base, to} {
		if rp != nil && rp.digest != o.digest {
			problems = append(problems, fmt.Sprintf("replay digest %.16s differs from the measured phase's %.16s", rp.digest, o.digest))
		}
	}
	if len(problems) > 0 {
		return "FAIL", append(problems, o.problems...)
	}
	return status, o.problems
}

func printMetrics(w io.Writer, ms []metric) {
	for _, m := range ms {
		fmt.Fprintf(w, "  %-28s %-14.6g %-9s %s\n", m.name, m.value, m.unit, m.note)
	}
}

// printExtras prints the workload-specific figures that are not
// benchmark metrics: failures over attempts, and the simulator's speed
// and model error where they apply.
func printExtras(w io.Writer, wl workload, o *outcome) {
	fmt.Fprintf(w, "  %-28s %-14.6g %-9s (%d of %d ops)\n", "fail_frac", ratio(float64(o.failed), float64(o.attempted)), "fraction", o.failed, o.attempted)
	if o.instrs > 0 {
		fmt.Fprintf(w, "  %-28s %-14.6g %-9s\n", "sim_minstr_per_s", float64(o.instrs)/1e6/o.wall.Seconds(), "Minstr/s")
	}
	if o.trials > 0 {
		fmt.Fprintf(w, "  %-28s %-14.6g %-9s\n", "trials_per_s", float64(o.trials)/o.wall.Seconds(), "trials/s")
	}
	if wl.name == "fig-suite" {
		fmt.Fprintf(w, "  %-28s %-14.6g %-9s mean |measured - paper| / paper over the 8 Fig. 10-12 averages\n", "paper_err", o.paperErr, "fraction")
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func printJSON(w io.Writer, correct bool, attempted, failed int, ms []metric) error {
	res := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]jsonMetric{}}
	for _, m := range ms {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[m.name] = jsonMetric{v, m.unit}
	}
	raw, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(raw))
	return err
}

// runChildren runs every selected workload runs times, each in its own
// process, forwards their reports and summarizes each metric by its
// median and quartiles over the runs.
func runChildren(ctx context.Context, sel []workload, cfg config, runs int, traced bool, stdout io.Writer) (int, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	final := result{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, w := range sel {
		var results []result
		for i := range runs {
			args := []string{"-workload", w.name, "-seed", strconv.FormatInt(cfg.seed+int64(i), 10),
				"-seconds", fmt.Sprint(cfg.seconds), "-procs", strconv.Itoa(cfg.procs),
				"-scale", fmt.Sprint(cfg.scale), "-repo", cfg.repo}
			if traced {
				args = append(args, "-trace", "1")
			}
			res, err := runChild(ctx, exe, args, stdout)
			if err != nil {
				return 0, fmt.Errorf("%s run %d: %w", w.name, i+1, err)
			}
			results = append(results, res)
			final.Correct = final.Correct && res.Correct
			final.Attempted += res.Attempted
			final.Failed += res.Failed
		}
		if runs > 1 {
			fmt.Fprintf(stdout, "%s over %d runs (seeds %d..%d): median [q1 q3] spread=(q3-q1)/median\n",
				w.name, runs, cfg.seed, cfg.seed+int64(runs)-1)
		}
		var keys []string
		for k := range results[0].Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			var vs []float64
			for _, r := range results {
				vs = append(vs, r.Metrics[k].Value)
			}
			q1, med, q3 := quartiles(vs)
			if runs > 1 {
				fmt.Fprintf(stdout, "  %-28s %-14.6g [%.6g %.6g] spread=%.4f %s\n", k, med, q1, q3, ratio(q3-q1, math.Abs(med)), results[0].Metrics[k].Unit)
			}
			name := k
			if len(sel) > 1 {
				name = w.name + "/" + k
			}
			final.Metrics[name] = jsonMetric{med, results[0].Metrics[k].Unit}
		}
	}
	raw, err := json.Marshal(final)
	if err != nil {
		return 0, err
	}
	fmt.Fprintln(stdout, string(raw))
	if !final.Correct {
		return 1, nil
	}
	return 0, nil
}

// runChild runs one child, copies its report without its host line and
// returns its result line.
func runChild(ctx context.Context, exe string, args []string, stdout io.Writer) (result, error) {
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return result{}, err
	}
	if err := cmd.Start(); err != nil {
		return result{}, err
	}
	var last string
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "{"):
			last = line
		case !strings.HasPrefix(line, "host:"):
			fmt.Fprintln(stdout, line)
		}
	}
	serr := sc.Err()
	werr := cmd.Wait()
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return result{}, errors.Join(fmt.Errorf("no result line: %w", err), serr, werr)
	}
	var ee *exec.ExitError
	if werr != nil && !(errors.As(werr, &ee) && ee.ExitCode() == 1 && !res.Correct) {
		return result{}, werr
	}
	return res, serr
}

// golden maps "<workload>@<scale>" to seed to the digest of that run.
type golden map[string]map[string]string

func goldenPath(repo string) string {
	return filepath.Join(repo, "cmd", "cppcbench", "testdata", "golden.json")
}

func goldenKey(workload string, scale float64) string { return fmt.Sprintf("%s@%g", workload, scale) }

func loadGolden(repo string) (golden, error) {
	raw, err := os.ReadFile(goldenPath(repo))
	if errors.Is(err, os.ErrNotExist) {
		return golden{}, nil
	}
	if err != nil {
		return nil, err
	}
	g := golden{}
	if err := json.Unmarshal(raw, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath(repo), err)
	}
	return g, nil
}

// writeGoldens records the golden digests of seeds 1-3 from round 0: the
// whole round of a simulation workload, the first goldenColds jobs of
// daemon-cold's first client, daemon-hit's pool.
func writeGoldens(ctx context.Context, sel []workload, cfg config, stdout io.Writer) error {
	g, err := loadGolden(cfg.repo)
	if err != nil {
		return err
	}
	for _, w := range sel {
		key := goldenKey(w.name, cfg.scale)
		g[key] = map[string]string{}
		for seed := int64(1); seed <= 3; seed++ {
			c := cfg
			c.workload, c.seed = w.name, seed
			r, err := w.setUp(ctx, c)
			if err != nil {
				return err
			}
			o, err := measure(ctx, r, phase{once: true})
			if cerr := r.close(); err == nil {
				err = cerr
			}
			switch {
			case err != nil:
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			case o.failed > 0:
				return fmt.Errorf("%s seed %d: %d failed ops: %v", w.name, seed, o.failed, o.problems)
			}
			g[key][strconv.FormatInt(seed, 10)] = o.goldenDigest
			fmt.Fprintf(stdout, "%s seed %d: %s\n", key, seed, o.goldenDigest)
		}
	}
	raw, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath(cfg.repo), append(raw, '\n'), 0o644)
}

// hostLine records what the numbers were measured on.
func hostLine(cfg config, requested int) string {
	s := fmt.Sprintf("host: cpu=%q numcpu=%d gomaxprocs=%d cpu.max=%q go=%s commit=%s procs=%d",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), cgroupCPUMax(), runtime.Version(), gitCommit(cfg.repo), cfg.procs)
	if requested > cfg.procs {
		s += fmt.Sprintf("\nunmeasured: -procs %d needs more than the %d CPUs here; everything ran %d-way", requested, cfg.procs, cfg.procs)
	}
	return s
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cgroupCPUMax is the container's CPU quota, which GOMAXPROCS ignores
// before Go 1.25.
func cgroupCPUMax() string {
	raw, err := os.ReadFile("/sys/fs/cgroup/cpu.max")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(raw))
}

// gitCommit reads the checked-out commit from .git without running git;
// a checkout without .git reports unknown.
func gitCommit(repo string) string {
	git := filepath.Join(repo, ".git")
	head, err := os.ReadFile(filepath.Join(git, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if raw, err := os.ReadFile(filepath.Join(git, ref)); err == nil {
		return strings.TrimSpace(string(raw))
	}
	packed, _ := os.ReadFile(filepath.Join(git, "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}
