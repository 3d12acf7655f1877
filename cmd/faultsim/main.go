// Command faultsim runs fault-injection campaigns against the protection
// schemes and prints outcome counts:
//
//	faultsim -scheme cppc -spatial 8x8 -trials 100
//	faultsim -scheme parity-1d -temporal 1
//	faultsim -matrix -scheme cppc -pairs 2
//	faultsim -field -scheme parity-1d
//
// SIGINT/SIGTERM (and -timeout) cancel a run cleanly between trials.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"

	"cppc/internal/cache"
	"cppc/internal/core"
	"cppc/internal/fault"
	"cppc/internal/par"
	"cppc/internal/protect"
)

func main() {
	var (
		scheme     = flag.String("scheme", "cppc", "parity-1d, cppc, secded, parity-2d")
		pairs      = flag.Int("pairs", 1, "CPPC register pairs (1,2,4,8)")
		degree     = flag.Int("degree", 8, "parity degree")
		shifting   = flag.Bool("shifting", true, "CPPC byte shifting")
		spatial    = flag.String("spatial", "", "spatial fault shape HxW, e.g. 8x8")
		temporal   = flag.Int("temporal", 0, "temporal fault bits per trial")
		matrix     = flag.Bool("matrix", false, "full 1x1..8x8 coverage matrix")
		interleave = flag.Bool("interleaved", false, "use the 8-way bit-interleaved physical layout (SECDED's)")
		mc         = flag.Bool("montecarlo", false, "accelerated-rate lifetime campaign")
		field      = flag.Bool("field", false, "field-mix grid: footprint x lifetime x rate under this scheme")
		lambda     = flag.Float64("lambda", 2e-7, "Monte-Carlo fault rate per bit per access")
		trials     = flag.Int("trials", 50, "trials per shape")
		seed       = flag.Int64("seed", 1, "rng seed")
		parallel   = flag.Int("parallel", runtime.GOMAXPROCS(0), "trial workers per campaign (results are bit-identical at any count)")
		timeout    = flag.Duration("timeout", 0, "abort the run after this duration (0 = no limit)")
	)
	flag.Parse()
	if *trials < 1 {
		fmt.Fprintln(os.Stderr, "faultsim: -trials must be at least 1")
		flag.Usage()
		os.Exit(2)
	}

	// SIGINT/SIGTERM (and -timeout) cancel the context; the campaign
	// loops poll it between trials, so a long matrix run exits cleanly
	// instead of having to be killed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	// The worker hint fans each campaign's trials across goroutines;
	// outputs are bit-identical whatever the count (see DESIGN.md,
	// "Deterministic trial parallelism").
	ctx = par.WithWorkers(ctx, *parallel)
	fail := func(err error) {
		if ctx.Err() != nil {
			err = fmt.Errorf("interrupted: %w", err)
		}
		fmt.Fprintf(os.Stderr, "faultsim: %v\n", err)
		os.Exit(1)
	}

	var mk protect.Factory
	switch *scheme {
	case "parity-1d":
		mk = func(c *cache.Cache) protect.Scheme { return protect.NewParity1D(c, *degree) }
	case "cppc":
		cfg := core.Config{ParityDegree: *degree, RegisterPairs: *pairs, ByteShifting: *shifting}
		if err := cfg.Validate(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		mk = func(c *cache.Cache) protect.Scheme { return protect.MustCPPC(c, cfg) }
	case "secded":
		mk = func(c *cache.Cache) protect.Scheme { return protect.NewSECDED(c, true) }
	case "parity-2d":
		mk = func(c *cache.Cache) protect.Scheme { return protect.NewTwoDim(c, *degree) }
	default:
		fmt.Fprintf(os.Stderr, "unknown scheme %q\n", *scheme)
		os.Exit(1)
	}

	ccfg := fault.CampaignCacheConfig()

	switch {
	case *mc:
		res, err := fault.MonteCarloMTTFCtx(ctx, mk, *lambda, *trials, 300_000, *seed)
		if err != nil {
			fail(err)
		}
		fmt.Printf("%s: lambda=%.1e, %d trials: mean life %.0f accesses, DUE=%d SDC=%d censored=%d, lethality=%.3f\n",
			*scheme, *lambda, res.Trials, res.MeanAccessesToFailure,
			res.DUEs, res.SDCs, res.Censored, res.MeasuredLethality())
	case *field:
		fmt.Printf("%s: field-mix campaign (corrected/DUE/SDC of %d trials per fault class)\n",
			*scheme, *trials)
		for _, foot := range []fault.Footprint{fault.FootWord, fault.FootColumn, fault.FootRow, fault.FootBank} {
			for _, life := range []fault.Lifetime{fault.Transient, fault.Intermittent, fault.StuckAt} {
				for _, faults := range []int{1, 4} {
					m := fault.Model{Foot: foot, Life: life}
					got, err := fault.RunModelTrialsCtx(ctx, ccfg, mk, m, faults, *trials, *seed)
					if err != nil {
						fail(err)
					}
					fmt.Printf("%-28s x%d  %d/%d/%d\n", m, faults, got.Corrected, got.DUE, got.SDC)
				}
			}
		}
	case *matrix:
		fmt.Printf("%s: spatial coverage (correction rate per HxW square, %d trials each)\n",
			*scheme, *trials)
		if *interleave {
			ccfg = fault.InterleavedCampaignConfig()
		}
		m, err := fault.CoverageMatrixCfgCtx(ctx, ccfg, mk, 8, *trials, *seed)
		if err != nil {
			fail(err)
		}
		fmt.Print(fault.FormatMatrix(m))
	case *spatial != "":
		var h, w int
		if _, err := fmt.Sscanf(strings.ToLower(*spatial), "%dx%d", &h, &w); err != nil || h < 1 || w < 1 {
			fmt.Fprintf(os.Stderr, "bad -spatial %q (want HxW)\n", *spatial)
			os.Exit(1)
		}
		got, err := fault.RunSpatialTrialsCfgCtx(ctx, ccfg, mk, h, w, *trials, *seed)
		if err != nil {
			fail(err)
		}
		fmt.Printf("%s: %dx%d spatial faults, %d trials: %s (coverage %.1f%%)\n",
			*scheme, h, w, *trials, got, got.CoverageRate()*100)
	case *temporal > 0:
		got, err := fault.RunTemporalTrialsCtx(ctx, mk, *temporal, *trials, *seed)
		if err != nil {
			fail(err)
		}
		fmt.Printf("%s: %d-bit temporal faults, %d trials: %s (coverage %.1f%%)\n",
			*scheme, *temporal, *trials, got, got.CoverageRate()*100)
	default:
		fmt.Fprintln(os.Stderr, "choose one of -spatial, -temporal, -matrix, -montecarlo or -field")
		os.Exit(1)
	}
}
